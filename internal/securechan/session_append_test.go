package securechan

import (
	"bytes"
	"testing"

	"cyclosa/internal/testutil"
)

// A record sealed into a pre-grown buffer opens into a fresh one and the
// other way round (same record format, same sequence discipline), and
// appending leaves dst's existing content intact.
func TestAppendAPIsInteroperate(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}

	msg := []byte("append-api interop message")
	ct, err := sa.EncryptAppend(make([]byte, 0, 64), msg)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := sb.DecryptAppend(nil, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Errorf("got %q, want %q", pt, msg)
	}

	ct2, err := sa.EncryptAppend(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	pt2, err := sb.DecryptAppend(make([]byte, 0, 64), ct2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt2, msg) {
		t.Errorf("got %q, want %q", pt2, msg)
	}

	// Appending leaves existing dst content intact.
	prefix := []byte("prefix:")
	ct3, err := sa.EncryptAppend(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sb.DecryptAppend(append([]byte{}, prefix...), ct3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], msg) {
		t.Errorf("append clobbered dst: %q", out)
	}
}

// With pre-grown buffers the encrypt→decrypt exchange must not allocate:
// this is the securechan half of the zero-allocation forward hot path.
func TestAppendAPIsZeroAlloc(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}

	msg := make([]byte, 512)
	ctBuf := make([]byte, 0, len(msg)+64)
	ptBuf := make([]byte, 0, len(msg)+64)
	n := testing.AllocsPerRun(500, func() {
		ct, err := sa.EncryptAppend(ctBuf[:0], msg)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := sb.DecryptAppend(ptBuf[:0], ct)
		if err != nil {
			t.Fatal(err)
		}
		if len(pt) != len(msg) {
			t.Fatal("length mismatch")
		}
	})
	if n != 0 {
		t.Errorf("encrypt+decrypt allocates %.1f times per op, want 0", n)
	}
}

// Replay discipline is identical through the append APIs.
func TestAppendAPIsReplayRejected(t *testing.T) {
	env := newTestEnv(t)
	ha, hb := env.handshakers(t)
	sa, sb, err := EstablishPair(ha, hb)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := sa.EncryptAppend(nil, []byte("once"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sb.DecryptAppend(nil, ct); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.DecryptAppend(nil, ct); err == nil {
		t.Fatal("replayed record accepted through append API")
	}
}
