package simnet

import (
	"bytes"
	"sync"
	"testing"

	"cyclosa/internal/enclave"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/securechan"
)

// fuzzEnv caches the attestation substrate (platform keygen is the
// expensive part); each fuzz iteration establishes a fresh session pair
// through it.
var (
	fuzzOnce sync.Once
	fuzzMu   sync.Mutex
	fuzzHA   *securechan.Handshaker
	fuzzHB   *securechan.Handshaker
	fuzzErr  error
)

func fuzzSessions() (*securechan.Session, *securechan.Session, error) {
	fuzzOnce.Do(func() {
		ias := enclave.NewIAS()
		pa, err := enclave.NewPlatform("fuzz-a", ias)
		if err != nil {
			fuzzErr = err
			return
		}
		pb, err := enclave.NewPlatform("fuzz-b", ias)
		if err != nil {
			fuzzErr = err
			return
		}
		cfg := enclave.Config{Name: "fuzz", Version: 1}
		verifier := enclave.NewVerifier(ias, enclave.MeasureCode("fuzz", 1))
		if fuzzHA, err = securechan.NewHandshaker(pa.New(cfg), verifier); err != nil {
			fuzzErr = err
			return
		}
		fuzzHB, fuzzErr = securechan.NewHandshaker(pb.New(cfg), verifier)
	})
	if fuzzErr != nil {
		return nil, nil, fuzzErr
	}
	return securechan.EstablishPair(fuzzHA, fuzzHB)
}

// FuzzRecordMutation drives simnet's frame-mutation corpus — bit flips,
// truncations, replays and fabricated garbage, the exact mutations the
// fault layer injects in flight — against a live secure-channel session
// pair and the result-page decoder. Every mutated frame must be rejected
// without a panic; the unmutated control must keep round-tripping.
func FuzzRecordMutation(f *testing.F) {
	f.Add([]byte("a typical padded forward request record"), uint64(3), uint8(0))
	f.Add([]byte{0}, uint64(0), uint8(1))
	f.Add(bytes.Repeat([]byte{0xa5}, 512), uint64(4096), uint8(2))
	f.Add([]byte("garbage page seed"), uint64(77), uint8(3))

	f.Fuzz(func(t *testing.T, payload []byte, pos uint64, mode uint8) {
		// The handshaker pair is shared state; fuzz workers serialize on it.
		fuzzMu.Lock()
		defer fuzzMu.Unlock()

		switch mode % 4 {
		case 0: // bit flip
			a, b, err := fuzzSessions()
			if err != nil {
				t.Fatal(err)
			}
			rec, err := a.EncryptAppend(nil, payload)
			if err != nil {
				t.Fatal(err)
			}
			bit := pos % uint64(len(rec)*8)
			rec[bit/8] ^= 1 << (bit % 8)
			if _, err := b.DecryptAppend(nil, rec); err == nil {
				t.Fatalf("bit-flipped record accepted (bit %d of %d bytes)", bit, len(rec))
			}
		case 1: // truncation
			a, b, err := fuzzSessions()
			if err != nil {
				t.Fatal(err)
			}
			rec, err := a.EncryptAppend(nil, payload)
			if err != nil {
				t.Fatal(err)
			}
			cut := pos % uint64(len(rec)) // strictly shorter
			if _, err := b.DecryptAppend(nil, rec[:cut]); err == nil {
				t.Fatalf("record truncated to %d of %d bytes accepted", cut, len(rec))
			}
		case 2: // replay (and the unmutated control)
			a, b, err := fuzzSessions()
			if err != nil {
				t.Fatal(err)
			}
			rec, err := a.EncryptAppend(nil, payload)
			if err != nil {
				t.Fatal(err)
			}
			pt, err := b.DecryptAppend(nil, rec)
			if err != nil {
				t.Fatalf("pristine record rejected: %v", err)
			}
			if !bytes.Equal(pt, payload) {
				t.Fatal("round trip corrupted the payload")
			}
			if _, err := b.DecryptAppend(nil, rec); err == nil {
				t.Fatal("replayed record accepted")
			}
		case 3: // Byzantine result page: fabricated bytes into the decoder
			size := int(pos % 4096)
			page := garbageBytes(size, mix(uint64(len(payload)), 0xfabfab, pos))
			if len(payload) > 0 {
				copy(page, payload) // let the fuzzer steer the prefix
			}
			// Must never panic; errors are the expected outcome.
			_, _, _ = searchengine.DecodeResults(page)
		}
	})
}
