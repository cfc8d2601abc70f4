package securechan

import (
	"bytes"
	"errors"
	"testing"

	"cyclosa/internal/enclave"
)

// Two handshakes between the same two handshakers — a re-attestation —
// derive new keys: the same plaintext seals differently, and a record of the
// first session does not open in the second.
func TestReattestDerivesFreshKeys(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa1, sb1, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	sa2, sb2, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("same plaintext, same sequence number")
	ct1, err := sa1.EncryptAppend(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := sa2.EncryptAppend(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ct1, ct2) {
		t.Fatal("re-attested pair sealed byte-identical records: same keys, same nonce")
	}
	if sa1.KeyFingerprint() == sa2.KeyFingerprint() {
		t.Error("re-attested sessions share a key fingerprint")
	}
	if _, err := sb2.DecryptAppend(nil, ct1); !errors.Is(err, ErrDecrypt) {
		t.Errorf("session-1 record opened in session 2: err = %v", err)
	}
	if pt, err := sb1.DecryptAppend(nil, ct1); err != nil || !bytes.Equal(pt, msg) {
		t.Errorf("session 1 own record: %q, %v", pt, err)
	}
}

// An offer without a 32-byte nonce is refused at attest time.
func TestHandshakeRejectsMissingNonce(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	offer, err := hb.Offer()
	if err != nil {
		t.Fatal(err)
	}
	for _, nonce := range [][]byte{nil, offer.Nonce[:16], append(offer.Nonce, 0)} {
		bad := &HandshakeMsg{PublicKey: offer.PublicKey, Quote: offer.Quote, Nonce: nonce}
		if _, err := establish(t, ha, bad); !errors.Is(err, ErrAttestation) {
			t.Errorf("%d-byte nonce: err = %v, want ErrAttestation", len(nonce), err)
		}
	}
}

// Each enclave signs one quote however many handshakes it makes, and the
// verifier checks each quote's signature once; a revocation still refuses
// the next handshake.
func TestHandshakeQuotesOnceAndHonoursRevocation(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	for i := 0; i < 5; i++ {
		if _, _, err := EstablishPair(ha, hb); err != nil {
			t.Fatal(err)
		}
	}
	if qa, qb := env.enclA.Stats().Quotes, env.enclB.Stats().Quotes; qa != 1 || qb != 1 {
		t.Errorf("quotes signed: a %d, b %d; want 1 each", qa, qb)
	}
	if got := env.ias.Verifications(); got != 2 {
		t.Errorf("%d IAS signature checks for 5 handshakes, want 2", got)
	}
	env.ias.Revoke("plat-b")
	_, _, err := EstablishPair(ha, hb)
	if !errors.Is(err, ErrAttestation) || !errors.Is(err, enclave.ErrRevokedPlatform) {
		t.Fatalf("handshake with a revoked, memoised platform: err = %v", err)
	}
}

// A destroyed enclave offers nothing, although its quote is already signed.
func TestOfferAfterDestroy(t *testing.T) {
	env := newTestEnv(t)
	ha, _ := env.handshakers(t)
	env.enclA.Destroy()
	if _, err := ha.Offer(); !errors.Is(err, enclave.ErrDestroyed) {
		t.Errorf("offer of a destroyed enclave: err = %v", err)
	}
}
