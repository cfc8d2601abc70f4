package securechan

import (
	"errors"
	"testing"
)

// TestSkipAdvancesSequence proves that shedding a record with Skip keeps
// the strict counter-nonce session in sync: the next record decrypts
// normally, and the nonce observer sees the skipped counter exactly as it
// would have for a decrypted record.
func TestSkipAdvancesSequence(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}

	var observed []uint64
	SetNonceObserver(func(s *Session, send bool, seq uint64) {
		if s == sb && !send {
			observed = append(observed, seq)
		}
	})
	defer SetNonceObserver(nil)

	shed, err := sa.EncryptAppend(nil, []byte("over quota"))
	if err != nil {
		t.Fatal(err)
	}
	kept, err := sa.EncryptAppend(nil, []byte("admitted"))
	if err != nil {
		t.Fatal(err)
	}

	if err := sb.Skip(shed); err != nil {
		t.Fatalf("Skip: %v", err)
	}
	pt, err := sb.DecryptAppend(nil, kept)
	if err != nil {
		t.Fatalf("decrypt after skip: %v", err)
	}
	if string(pt) != "admitted" {
		t.Fatalf("plaintext = %q", pt)
	}
	if len(observed) != 2 || observed[0] != 0 || observed[1] != 1 {
		t.Fatalf("observer saw %v, want [0 1]", observed)
	}
}

func TestSkipRejectsReplayAndShortRecords(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sa.EncryptAppend(nil, []byte("msg-0"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.DecryptAppend(nil, ct); err != nil {
		t.Fatal(err)
	}
	// A replayed record must not be skippable: its sequence is stale.
	if err := sb.Skip(ct); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("Skip(replay) err = %v, want ErrDecrypt", err)
	}
	if err := sb.Skip([]byte{1, 2, 3}); !errors.Is(err, ErrTooShort) {
		t.Fatalf("Skip(short) err = %v, want ErrTooShort", err)
	}
	sb.Close()
	ct2, err := sa.EncryptAppend(nil, []byte("msg-1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Skip(ct2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Skip(closed) err = %v, want ErrClosed", err)
	}
}
