package securechan

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Arbitrary message sequences round trip in order, and every ciphertext
// differs from its plaintext.
func TestSessionRoundTripProperty(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	f := func(msgs [][]byte) bool {
		for _, msg := range msgs {
			ct, err := sa.EncryptAppend(nil, msg)
			if err != nil {
				return false
			}
			if len(msg) > 0 && bytes.Contains(ct, msg) && len(msg) > 8 {
				return false // plaintext visible in the record
			}
			pt, err := sb.DecryptAppend(nil, ct)
			if err != nil {
				return false
			}
			if !bytes.Equal(pt, msg) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Ciphertexts are never identical for identical plaintexts (counter nonces
// move), and record length grows only by the fixed overhead.
func TestSessionCiphertextFreshness(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("identical message")
	seen := make(map[string]struct{})
	for i := 0; i < 50; i++ {
		ct, err := sa.EncryptAppend(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := seen[string(ct)]; dup {
			t.Fatal("identical ciphertext produced twice")
		}
		seen[string(ct)] = struct{}{}
		if len(ct) != len(msg)+8+16 { // seq + GCM tag
			t.Fatalf("unexpected record size %d for %d-byte message", len(ct), len(msg))
		}
		if _, err := sb.DecryptAppend(nil, ct); err != nil {
			t.Fatal(err)
		}
	}
}

// HKDF expansion is deterministic and produces distinct directional keys.
func TestDeriveKeysProperties(t *testing.T) {
	f := func(shared, transcript []byte) bool {
		a1, b1 := deriveKeys(shared, transcript)
		a2, b2 := deriveKeys(shared, transcript)
		if a1 != a2 || b1 != b2 {
			return false // not deterministic
		}
		return a1 != b1 // directional keys differ
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Different transcripts yield different keys (binding to the handshake).
func TestDeriveKeysTranscriptBinding(t *testing.T) {
	shared := []byte("shared-secret")
	a1, _ := deriveKeys(shared, []byte("transcript-1"))
	a2, _ := deriveKeys(shared, []byte("transcript-2"))
	if a1 == a2 {
		t.Error("transcript change did not change keys")
	}
}

// hkdfExpand produces the requested length for a range of sizes.
func TestHKDFExpandLengths(t *testing.T) {
	prk := hkdfExtract(nil, []byte("ikm"))
	for _, n := range []int{1, 16, 32, 33, 64, 100, 255} {
		out := hkdfExpand(prk, []byte("info"), n)
		if len(out) != n {
			t.Errorf("expand(%d) = %d bytes", n, len(out))
		}
	}
}
