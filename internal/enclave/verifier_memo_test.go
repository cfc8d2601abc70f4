package enclave

import (
	"errors"
	"sync"
	"testing"
)

// memoFixture is one genuine platform with a known-good enclave, its quote
// and a verifier trusting it.
func memoFixture(t *testing.T) (*IAS, *Platform, *Quote, *Verifier) {
	t.Helper()
	ias := NewIAS()
	p := newTestPlatform(t, ias)
	q, err := p.New(Config{Name: "cyclosa", Version: 1}).Quote([]byte("handshake-key-hash"))
	if err != nil {
		t.Fatal(err)
	}
	return ias, p, q, NewVerifier(ias, MeasureCode("cyclosa", 1))
}

// One signature check per quote: the verifier checks a quote's signature the
// first time and accepts the same quote again without the IAS signature
// check, from any number of goroutines.
func TestVerifierChecksEachQuoteSignatureOnce(t *testing.T) {
	ias, _, q, v := memoFixture(t)
	if err := v.Verify(q); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if err := v.Verify(q); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := ias.Verifications(); got != 1 {
		t.Fatalf("%d signature checks for one quote verified 401 times, want 1", got)
	}
}

// A memoised quote is no pass: a forged copy differs from it and is checked
// (and refused), and an untrusted measurement is refused every time.
func TestVerifierMemoRefusesForgeries(t *testing.T) {
	ias, p, q, v := memoFixture(t)
	if err := v.Verify(q); err != nil {
		t.Fatal(err)
	}
	forged := *q
	forged.ReportData[0] ^= 0xff
	if err := v.Verify(&forged); !errors.Is(err, ErrBadQuoteSignature) {
		t.Errorf("forged report data err = %v", err)
	}
	forged = *q
	forged.Signature = append([]byte(nil), q.Signature...)
	forged.Signature[0] ^= 0xff
	if err := v.Verify(&forged); !errors.Is(err, ErrBadQuoteSignature) {
		t.Errorf("forged signature err = %v", err)
	}
	evil, err := p.New(Config{Name: "evil", Version: 1}).Quote(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := v.Verify(evil); !errors.Is(err, ErrUntrustedEnclave) {
			t.Errorf("untrusted enclave, call %d: err = %v", i, err)
		}
	}
	if got := ias.Verifications(); got != 5 {
		t.Errorf("%d signature checks, want 5 (the genuine quote once, each forgery and untrusted call)", got)
	}
	// The genuine quote is still the memoised one.
	if err := v.Verify(q); err != nil || ias.Verifications() != 5 {
		t.Errorf("genuine quote after forgeries: err %v, %d signature checks", err, ias.Verifications())
	}
}

// Revocation is checked on every call, memo or not.
func TestVerifierMemoHonoursRevocation(t *testing.T) {
	ias, p, q, v := memoFixture(t)
	if err := v.Verify(q); err != nil {
		t.Fatal(err)
	}
	ias.Revoke(p.ID())
	if err := v.Verify(q); !errors.Is(err, ErrRevokedPlatform) {
		t.Errorf("memoised quote of a revoked platform: err = %v", err)
	}
}

// A platform re-registered under a new key is checked again: its new quotes
// cost a signature check, and the quote memoised under the old key no longer
// verifies.
func TestVerifierMemoRechecksReregisteredPlatform(t *testing.T) {
	ias := NewIAS()
	v := NewVerifier(ias, MeasureCode("cyclosa", 1))
	quote := func(p *Platform) *Quote {
		t.Helper()
		q, err := p.New(Config{Name: "cyclosa", Version: 1}).Quote([]byte("k"))
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	old := quote(NewDeterministicPlatform("relay", []byte("secret-a"), ias))
	if err := v.Verify(old); err != nil {
		t.Fatal(err)
	}
	renewed := quote(NewDeterministicPlatform("relay", []byte("secret-b"), ias))
	if err := v.Verify(old); !errors.Is(err, ErrBadQuoteSignature) {
		t.Errorf("memoised quote under the replaced key: err = %v", err)
	}
	if err := v.Verify(renewed); err != nil {
		t.Fatalf("quote under the new key rejected: %v", err)
	}
	if got := ias.Verifications(); got != 3 {
		t.Errorf("%d signature checks, want 3 (old, old under the new key, renewed)", got)
	}
}
