package simnet

import (
	"testing"

	"cyclosa/internal/enclave"
	"cyclosa/internal/securechan"
)

// testHandshakers builds two attested handshakers on separate platforms.
func testHandshakers(t *testing.T) (*securechan.Handshaker, *securechan.Handshaker) {
	t.Helper()
	ias := enclave.NewIAS()
	cfg := enclave.Config{Name: "cyclosa", Version: 1}
	verifier := enclave.NewVerifier(ias, enclave.MeasureCode("cyclosa", 1))
	hs := make([]*securechan.Handshaker, 2)
	for i, id := range []string{"plat-a", "plat-b"} {
		p, err := enclave.NewPlatform(id, ias)
		if err != nil {
			t.Fatal(err)
		}
		if hs[i], err = securechan.NewHandshaker(p.New(cfg), verifier); err != nil {
			t.Fatal(err)
		}
	}
	return hs[0], hs[1]
}

// TestNoncePruningOnSessionClose: discarded sessions must not pin the
// checker's nonce bookkeeping. The core layer closes every session half it
// drops on a pair break, and closing must release the corresponding map
// entries — otherwise a long soak of breakPair -> re-attest cycles grows
// the map (and the dead sessions it keys on) without bound.
func TestNoncePruningOnSessionClose(t *testing.T) {
	inv := NewInvariants(Sentinel)
	uninstall := inv.Install()
	defer uninstall()

	tracked := func() int {
		inv.mu.Lock()
		defer inv.mu.Unlock()
		return len(inv.nonces)
	}

	ha, hb := testHandshakers(t)

	// Three establish -> exchange -> discard cycles: the map must fill while
	// a session is live and drain back to empty each time it is closed.
	for i := 0; i < 3; i++ {
		sa, sb, err := securechan.EstablishPair(ha, hb)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := sa.EncryptAppend(nil, []byte("probe"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sb.DecryptAppend(nil, ct); err != nil {
			t.Fatal(err)
		}
		if got := tracked(); got == 0 {
			t.Fatal("nonce checker tracked no live session")
		}
		sa.Close()
		sb.Close()
		if got := tracked(); got != 0 {
			t.Fatalf("cycle %d: %d nonce entries survived session close", i, got)
		}
	}
	if _, _, nonce := inv.Scans(); nonce == 0 {
		t.Fatal("nonce checker never ran")
	}
	if viol, over := inv.Violations(); len(viol) != 0 || over != 0 {
		t.Fatalf("unexpected violations: %v (+%d)", viol, over)
	}
}

// TestNonceReuseAcrossSessionsDetected: two sessions built from the same
// offers have the same keys, and each starts its counter at zero, so their
// nonces collide. The checker must flag that whether the first session was
// closed before the second sealed or both are live, and must stay quiet for
// re-attestations, whose fresh nonces give fresh keys.
func TestNonceReuseAcrossSessionsDetected(t *testing.T) {
	inv := NewInvariants(Sentinel)
	uninstall := inv.Install()
	defer uninstall()
	ha, hb := testHandshakers(t)

	seal := func(s *securechan.Session) {
		t.Helper()
		if _, err := s.EncryptAppend(nil, []byte("probe")); err != nil {
			t.Fatal(err)
		}
	}
	violations := func() int {
		t.Helper()
		viol, over := inv.Violations()
		return len(viol) + int(over)
	}

	// Re-attestations through fresh offers: no reuse.
	for i := 0; i < 3; i++ {
		sa, sb, err := securechan.EstablishPair(ha, hb)
		if err != nil {
			t.Fatal(err)
		}
		seal(sa)
		seal(sb)
		sa.Close()
		sb.Close()
	}
	if n := violations(); n != 0 {
		t.Fatalf("fresh re-attestations flagged: %d violations", n)
	}

	// Same offers replayed into two sessions: same keys.
	for _, closeFirst := range []bool{true, false} {
		offerA, err := ha.Offer()
		if err != nil {
			t.Fatal(err)
		}
		offerB, err := hb.Offer()
		if err != nil {
			t.Fatal(err)
		}
		s1, err := ha.Establish(offerA, offerB, true)
		if err != nil {
			t.Fatal(err)
		}
		s2, err := ha.Establish(offerA, offerB, true)
		if err != nil {
			t.Fatal(err)
		}
		if s1.KeyFingerprint() != s2.KeyFingerprint() {
			t.Fatal("sessions from the same offers have different key fingerprints")
		}
		before := violations()
		seal(s1)
		seal(s1)
		if closeFirst {
			s1.Close()
		}
		seal(s2)
		if violations() == before {
			t.Errorf("closeFirst=%v: nonce reuse across two sessions under one key went unflagged", closeFirst)
		}
		s1.Close()
		s2.Close()
	}
}
