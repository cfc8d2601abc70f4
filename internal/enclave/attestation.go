package enclave

import (
	"bytes"
	"crypto/ed25519"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Quote is the attestation evidence an enclave presents to a remote
// verifier: the enclave measurement, 64 bytes of caller-chosen report data
// (CYCLOSA binds the enclave's static handshake public key here), and a
// signature by the platform's attestation key.
type Quote struct {
	// PlatformID identifies the signing platform.
	PlatformID string
	// Measurement is the attested enclave's code identity.
	Measurement Measurement
	// ReportData carries caller-bound data (e.g. a key-exchange public key
	// hash), preventing quote replay for a different handshake key.
	ReportData [64]byte
	// Signature is the platform attestation signature.
	Signature []byte
}

func (q *Quote) signedBytes() []byte {
	buf := make([]byte, 0, len(q.PlatformID)+len(q.Measurement)+len(q.ReportData))
	buf = append(buf, q.PlatformID...)
	buf = append(buf, q.Measurement[:]...)
	buf = append(buf, q.ReportData[:]...)
	return buf
}

// Attestation errors.
var (
	ErrUnknownPlatform   = errors.New("ias: unknown platform")
	ErrBadQuoteSignature = errors.New("ias: invalid quote signature")
	ErrRevokedPlatform   = errors.New("ias: platform revoked")
	ErrUntrustedEnclave  = errors.New("attestation: measurement not in known-good list")
)

// IAS simulates the Intel Attestation Service: it knows the attestation
// public keys of genuine platforms and verifies that a quote originates from
// one of them (§V-D).
type IAS struct {
	mu       sync.RWMutex
	keys     map[string]ed25519.PublicKey
	revoked  map[string]struct{}
	verified atomic.Uint64
}

// NewIAS creates an empty attestation service.
func NewIAS() *IAS {
	return &IAS{
		keys:    make(map[string]ed25519.PublicKey),
		revoked: make(map[string]struct{}),
	}
}

func (s *IAS) register(platformID string, key ed25519.PublicKey) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keys[platformID] = key
}

// Revoke marks a platform as revoked (e.g. compromised attestation key);
// subsequent quotes from it fail verification.
func (s *IAS) Revoke(platformID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.revoked[platformID] = struct{}{}
}

// platformKey returns the attestation key a genuine, non-revoked platform is
// registered under. It checks no signature: the Verifier calls it on every
// quote, memoised or not, so a revocation takes effect on the next handshake.
func (s *IAS) platformKey(platformID string) (ed25519.PublicKey, error) {
	s.mu.RLock()
	key, ok := s.keys[platformID]
	_, revoked := s.revoked[platformID]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlatform, platformID)
	}
	if revoked {
		return nil, fmt.Errorf("%w: %q", ErrRevokedPlatform, platformID)
	}
	return key, nil
}

// checkSignature verifies the quote's signature under key, counting the
// check.
func (s *IAS) checkSignature(key ed25519.PublicKey, q *Quote) error {
	s.verified.Add(1)
	if !ed25519.Verify(key, q.signedBytes(), q.Signature) {
		return ErrBadQuoteSignature
	}
	return nil
}

// Verify checks that the quote was signed by a genuine, non-revoked
// platform.
func (s *IAS) Verify(q *Quote) error {
	key, err := s.platformKey(q.PlatformID)
	if err != nil {
		return err
	}
	return s.checkSignature(key, q)
}

// Verifications returns the number of quote signatures checked.
func (s *IAS) Verifications() uint64 { return s.verified.Load() }

// Verifier performs the client side of CYCLOSA's remote attestation: it
// checks the quote with the IAS and compares the measurement against the
// known-good list (all enclaves must be known implementations, §V-D).
//
// An enclave quotes its handshake key once (securechan.NewHandshaker), so
// the same quote arrives with every handshake it makes. The verifier
// therefore remembers, per (platform, known-good measurement), the last
// quote whose signature it checked and the platform key it checked it
// under; the same quote again skips the signature check. The platform
// lookup (unknown, revoked) and the known-good list are checked on every
// call, and a platform re-registered under a new key is checked again.
type Verifier struct {
	ias  *IAS
	good map[Measurement]struct{}

	mu    sync.Mutex
	memos map[quoteOrigin]quoteMemo
}

// quoteOrigin names who produced a quote: one memo each.
type quoteOrigin struct {
	platform    string
	measurement Measurement
}

// quoteMemo is the checked quote of one origin: the part of it the origin
// does not fix, and the platform key its signature was checked under.
type quoteMemo struct {
	key        ed25519.PublicKey
	reportData [64]byte
	signature  []byte
}

// NewVerifier builds a verifier trusting the given enclave measurements.
func NewVerifier(ias *IAS, knownGood ...Measurement) *Verifier {
	good := make(map[Measurement]struct{}, len(knownGood))
	for _, m := range knownGood {
		good[m] = struct{}{}
	}
	return &Verifier{ias: ias, good: good, memos: make(map[quoteOrigin]quoteMemo)}
}

// Verify accepts a quote only if the IAS confirms platform genuineness and
// the measurement is a known implementation.
func (v *Verifier) Verify(q *Quote) error {
	key, err := v.ias.platformKey(q.PlatformID)
	if err != nil {
		return err
	}
	if _, ok := v.good[q.Measurement]; !ok {
		if err := v.ias.checkSignature(key, q); err != nil {
			return err
		}
		return fmt.Errorf("%w: %s", ErrUntrustedEnclave, q.Measurement)
	}
	// The signature check runs with no lock held: first handshakes arriving
	// together may each check, and the last to finish stays memoised.
	origin := quoteOrigin{platform: q.PlatformID, measurement: q.Measurement}
	v.mu.Lock()
	m, ok := v.memos[origin]
	v.mu.Unlock()
	if ok && m.key.Equal(key) && m.reportData == q.ReportData && bytes.Equal(m.signature, q.Signature) {
		return nil
	}
	if err := v.ias.checkSignature(key, q); err != nil {
		return err
	}
	v.mu.Lock()
	v.memos[origin] = quoteMemo{key: key, reportData: q.ReportData, signature: bytes.Clone(q.Signature)}
	v.mu.Unlock()
	return nil
}
