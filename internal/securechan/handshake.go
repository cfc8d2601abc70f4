package securechan

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"

	"cyclosa/internal/enclave"
)

// Handshake errors.
var (
	ErrAttestation = errors.New("securechan: peer attestation failed")
	ErrBinding     = errors.New("securechan: quote not bound to handshake key")
)

// nonceSize is the length of the per-session nonce every offer carries.
const nonceSize = 32

// HandshakeMsg is one attested key-exchange message: the sender enclave's
// static X25519 public key, the quote whose report data commits to that key,
// and a fresh nonce. It is the simulated analogue of CYCLOSA's
// challenge/quote exchange (§V-D).
type HandshakeMsg struct {
	// PublicKey is the sender enclave's X25519 public key, the same in
	// every offer the enclave makes.
	PublicKey []byte `json:"publicKey"`
	// Quote attests the sender's enclave and binds PublicKey via its report
	// data (SHA-256 of the key). Signed once per enclave.
	Quote *enclave.Quote `json:"quote"`
	// Nonce is 32 random bytes drawn for this offer alone. Both
	// offers' nonces salt the session keys, so every handshake between the
	// same two enclaves yields new keys.
	Nonce []byte `json:"nonce"`
}

// Marshal encodes the message for the wire.
func (m *HandshakeMsg) Marshal() ([]byte, error) { return json.Marshal(m) }

// UnmarshalHandshakeMsg decodes a wire message.
func UnmarshalHandshakeMsg(data []byte) (*HandshakeMsg, error) {
	var m HandshakeMsg
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("handshake msg: %w", err)
	}
	return &m, nil
}

// Handshaker drives one side of the attested key exchange for one enclave.
type Handshaker struct {
	encl     *enclave.Enclave
	verifier *enclave.Verifier
	priv     *ecdh.PrivateKey
	pub      []byte
	quote    *enclave.Quote
}

// NewHandshaker creates a handshaker: the enclave's X25519 key pair is
// generated "inside" the enclave and its public half is quoted here, once;
// every Offer reuses that quote. The verifier carries the known-good
// measurement list used to judge the peer.
func NewHandshaker(encl *enclave.Enclave, verifier *enclave.Verifier) (*Handshaker, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("handshake keygen: %w", err)
	}
	pub := priv.PublicKey().Bytes()
	digest := sha256.Sum256(pub)
	quote, err := encl.Quote(digest[:])
	if err != nil {
		return nil, fmt.Errorf("handshake quote: %w", err)
	}
	return &Handshaker{encl: encl, verifier: verifier, priv: priv, pub: pub, quote: quote}, nil
}

// Offer produces this side's handshake message for one session: the
// enclave's key and quote and a fresh nonce. It fails with
// enclave.ErrDestroyed once the enclave is gone.
func (h *Handshaker) Offer() (*HandshakeMsg, error) {
	if h.encl.Destroyed() {
		return nil, fmt.Errorf("handshake quote: %w", enclave.ErrDestroyed)
	}
	nonce := make([]byte, nonceSize)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("handshake nonce: %w", err)
	}
	return &HandshakeMsg{PublicKey: h.pub, Quote: h.quote, Nonce: nonce}, nil
}

// verifyPeer checks the peer's quote (IAS + known-good measurement), its
// binding to the peer's handshake key and the presence of its nonce.
func (h *Handshaker) verifyPeer(peer *HandshakeMsg) error {
	if peer.Quote == nil {
		return ErrAttestation
	}
	if len(peer.Nonce) != nonceSize {
		return fmt.Errorf("%w: nonce of %d bytes, want %d", ErrAttestation, len(peer.Nonce), nonceSize)
	}
	if err := h.verifier.Verify(peer.Quote); err != nil {
		return fmt.Errorf("%w: %w", ErrAttestation, err)
	}
	digest := sha256.Sum256(peer.PublicKey)
	if [32]byte(peer.Quote.ReportData[:32]) != digest {
		return ErrBinding
	}
	return nil
}

// Establish completes the key exchange: own is the offer this handshaker
// sent for the session, peer the one it received. initiator must be true on
// exactly one side; both sides derive the same directional keys, assigned
// by role.
func (h *Handshaker) Establish(own, peer *HandshakeMsg, initiator bool) (*Session, error) {
	if err := h.verifyPeer(peer); err != nil {
		return nil, err
	}
	peerPub, err := ecdh.X25519().NewPublicKey(peer.PublicKey)
	if err != nil {
		return nil, fmt.Errorf("peer public key: %w", err)
	}
	shared, err := h.priv.ECDH(peerPub)
	if err != nil {
		return nil, fmt.Errorf("ecdh: %w", err)
	}

	// The transcript binds both public keys and both nonces in a
	// role-independent order. The keys are the same in every session of the
	// pair; the nonces make this session's keys new.
	initSide, respSide := [2][]byte{h.pub, own.Nonce}, [2][]byte{peer.PublicKey, peer.Nonce}
	if !initiator {
		initSide, respSide = respSide, initSide
	}
	tr := sha256.New()
	tr.Write(initSide[0])
	tr.Write(respSide[0])
	tr.Write(initSide[1])
	tr.Write(respSide[1])
	initKey, respKey := deriveKeys(shared, tr.Sum(nil))

	if initiator {
		return newSession(initKey, respKey, peer.Quote.Measurement)
	}
	return newSession(respKey, initKey, peer.Quote.Measurement)
}

// EstablishPair runs the full handshake between two enclaves in-process and
// returns the two session ends (a, b). It is the building block for the
// simulated network, where handshake messages travel over the message
// transport.
func EstablishPair(a, b *Handshaker) (*Session, *Session, error) {
	offerA, err := a.Offer()
	if err != nil {
		return nil, nil, fmt.Errorf("offer a: %w", err)
	}
	offerB, err := b.Offer()
	if err != nil {
		return nil, nil, fmt.Errorf("offer b: %w", err)
	}
	sa, err := a.Establish(offerA, offerB, true)
	if err != nil {
		return nil, nil, fmt.Errorf("establish a: %w", err)
	}
	sb, err := b.Establish(offerB, offerA, false)
	if err != nil {
		return nil, nil, fmt.Errorf("establish b: %w", err)
	}
	return sa, sb, nil
}
