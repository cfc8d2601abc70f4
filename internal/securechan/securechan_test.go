package securechan

import (
	"bytes"
	"errors"
	"testing"

	"cyclosa/internal/enclave"
)

// testEnv wires two enclaves on separate genuine platforms plus a verifier
// trusting their shared measurement.
type testEnv struct {
	ias      *enclave.IAS
	verifier *enclave.Verifier
	enclA    *enclave.Enclave
	enclB    *enclave.Enclave
}

func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	ias := enclave.NewIAS()
	pa, err := enclave.NewPlatform("plat-a", ias)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := enclave.NewPlatform("plat-b", ias)
	if err != nil {
		t.Fatal(err)
	}
	cfg := enclave.Config{Name: "cyclosa", Version: 1}
	env := &testEnv{
		ias:   ias,
		enclA: pa.New(cfg),
		enclB: pb.New(cfg),
	}
	env.verifier = enclave.NewVerifier(ias, enclave.MeasureCode("cyclosa", 1))
	return env
}

func (e *testEnv) handshakers(t *testing.T) (*Handshaker, *Handshaker) {
	t.Helper()
	ha, err := NewHandshaker(e.enclA, e.verifier)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := NewHandshaker(e.enclB, e.verifier)
	if err != nil {
		t.Fatal(err)
	}
	return ha, hb
}

func TestEstablishPairAndRoundTrip(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	if sa.PeerMeasurement() != env.enclB.Measurement() {
		t.Error("session A has wrong peer measurement")
	}

	msg := []byte("GET /search?q=kidney+dialysis")
	ct, err := sa.Encrypt(msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ct, []byte("kidney")) {
		t.Error("ciphertext leaks plaintext")
	}
	pt, err := sb.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Errorf("round trip = %q", pt)
	}

	// Reverse direction.
	ct2, err := sb.Encrypt([]byte("results"))
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := sa.Decrypt(ct2)
	if err != nil || string(pt2) != "results" {
		t.Fatalf("reverse direction: %q, %v", pt2, err)
	}
}

func TestReplayRejected(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sa.Encrypt([]byte("msg-0"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Decrypt(ct); err != nil {
		t.Fatal(err)
	}
	// Replay of the same record must fail (§VI-b).
	if _, err := sb.Decrypt(ct); !errors.Is(err, ErrDecrypt) {
		t.Errorf("replay err = %v, want ErrDecrypt", err)
	}
}

func TestOutOfOrderAndTamperRejected(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	ct0, _ := sa.Encrypt([]byte("m0"))
	ct1, _ := sa.Encrypt([]byte("m1"))
	if _, err := sb.Decrypt(ct1); !errors.Is(err, ErrDecrypt) {
		t.Errorf("out-of-order err = %v", err)
	}
	ct0[len(ct0)-1] ^= 0x01
	if _, err := sb.Decrypt(ct0); !errors.Is(err, ErrDecrypt) {
		t.Errorf("tampered err = %v", err)
	}
	if _, err := sb.Decrypt([]byte{1, 2}); !errors.Is(err, ErrTooShort) {
		t.Errorf("short record err = %v", err)
	}
}

func TestClosedSession(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, _, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	sa.Close()
	if _, err := sa.Encrypt([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("encrypt after close err = %v", err)
	}
	if _, err := sa.Decrypt([]byte("xxxxxxxxxx")); !errors.Is(err, ErrClosed) {
		t.Errorf("decrypt after close err = %v", err)
	}
}

func TestHandshakeRejectsUntrustedEnclave(t *testing.T) {
	env := newTestEnv(t)
	// Evil enclave on a genuine platform: IAS passes, measurement does not.
	pEvil, err := enclave.NewPlatform("plat-evil", env.ias)
	if err != nil {
		t.Fatal(err)
	}
	evil := pEvil.New(enclave.Config{Name: "evil", Version: 1})
	hEvil, err := NewHandshaker(evil, env.verifier)
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := env.handshakers(t)
	offer, err := hEvil.Offer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ha.Establish(offer, true); !errors.Is(err, ErrAttestation) {
		t.Errorf("untrusted enclave err = %v", err)
	}
}

func TestHandshakeRejectsRoguePlatform(t *testing.T) {
	env := newTestEnv(t)
	// Correct code identity but platform unknown to the IAS (no SGX).
	rogue, err := enclave.NewPlatform("rogue", nil)
	if err != nil {
		t.Fatal(err)
	}
	encl := rogue.New(enclave.Config{Name: "cyclosa", Version: 1})
	hRogue, err := NewHandshaker(encl, env.verifier)
	if err != nil {
		t.Fatal(err)
	}
	ha, _ := env.handshakers(t)
	offer, err := hRogue.Offer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ha.Establish(offer, true); !errors.Is(err, ErrAttestation) {
		t.Errorf("rogue platform err = %v", err)
	}
}

func TestHandshakeRejectsKeySubstitution(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	offer, err := hb.Offer()
	if err != nil {
		t.Fatal(err)
	}
	// A man in the middle swaps the handshake key but cannot re-bind the
	// quote (report data commits to the original key).
	mitm, err := NewHandshaker(env.enclB, env.verifier)
	if err != nil {
		t.Fatal(err)
	}
	mitmOffer, err := mitm.Offer()
	if err != nil {
		t.Fatal(err)
	}
	forged := &HandshakeMsg{PublicKey: mitmOffer.PublicKey, Quote: offer.Quote}
	if _, err := ha.Establish(forged, true); !errors.Is(err, ErrBinding) {
		t.Errorf("key substitution err = %v", err)
	}
	// Missing quote is also rejected.
	if _, err := ha.Establish(&HandshakeMsg{PublicKey: offer.PublicKey}, true); !errors.Is(err, ErrAttestation) {
		t.Errorf("missing quote err = %v", err)
	}
}

func TestHandshakeMsgMarshalRoundTrip(t *testing.T) {
	env := newTestEnv(t)
	ha, _ := env.handshakers(t)
	offer, err := ha.Offer()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := offer.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalHandshakeMsg(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.PublicKey, offer.PublicKey) {
		t.Error("public key lost in marshal round trip")
	}
	if back.Quote.Measurement != offer.Quote.Measurement {
		t.Error("quote lost in marshal round trip")
	}
	if _, err := UnmarshalHandshakeMsg([]byte("{bad")); err == nil {
		t.Error("bad JSON should fail")
	}
}

func TestSessionsAreIndependent(t *testing.T) {
	env := newTestEnv(t)
	ha1, hb1 := env.handshakers(t)
	sa1, _, err := EstablishPair(ha1, hb1)
	if err != nil {
		t.Fatal(err)
	}
	ha2, hb2 := env.handshakers(t)
	_, sb2, err := EstablishPair(ha2, hb2)
	if err != nil {
		t.Fatal(err)
	}
	// A record from session 1 must not decrypt in session 2 (fresh ephemeral
	// keys per handshake).
	ct, err := sa1.Encrypt([]byte("cross-session"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb2.Decrypt(ct); !errors.Is(err, ErrDecrypt) {
		t.Errorf("cross-session decrypt err = %v", err)
	}
}
