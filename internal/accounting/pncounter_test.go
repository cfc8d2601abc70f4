package accounting

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

func TestLedgerIncValue(t *testing.T) {
	l := NewLedger("r1")
	l.Inc("mallory", 2)
	l.Inc("mallory", 1)
	l.Inc("trent", 1)
	if got := l.Value("mallory"); got != 3 {
		t.Fatalf("Value(mallory) = %d, want 3", got)
	}
	if got := l.Value("trent"); got != 1 {
		t.Fatalf("Value(trent) = %d, want 1", got)
	}
	if got := l.Value("nobody"); got != 0 {
		t.Fatalf("Value(nobody) = %d, want 0", got)
	}
	l.Pardon("mallory", 1)
	if got := l.Value("mallory"); got != 2 {
		t.Fatalf("Value(mallory) after pardon = %d, want 2", got)
	}
	// Zero deltas and empty subjects are no-ops.
	l.Inc("", 5)
	l.Inc("x", 0)
	if got := l.Values(); !reflect.DeepEqual(got, map[string]int64{"mallory": 2, "trent": 1}) {
		t.Fatalf("Values = %v", got)
	}
}

func TestLedgerWireRoundTrip(t *testing.T) {
	a := NewLedger("r1")
	a.Inc("mallory", 3)
	a.Pardon("mallory", 1)
	a.Inc("trent", 7)

	b := NewLedger("r2")
	changed, err := b.MergeWire(a.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"mallory", "trent"}; !reflect.DeepEqual(changed, want) {
		t.Fatalf("changed = %v, want %v", changed, want)
	}
	if got := b.Value("mallory"); got != 2 {
		t.Fatalf("merged Value(mallory) = %d, want 2", got)
	}
	if got := b.Value("trent"); got != 7 {
		t.Fatalf("merged Value(trent) = %d, want 7", got)
	}
	// Re-merging the identical payload is a no-op (idempotence).
	changed, err = b.MergeWire(a.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 0 {
		t.Fatalf("idempotent re-merge changed %v", changed)
	}
}

func TestLedgerWireDeterministic(t *testing.T) {
	build := func() *Ledger {
		l := NewLedger("rX")
		l.Inc("b", 1)
		l.Inc("a", 2)
		l.Pardon("c", 1)
		return l
	}
	w1 := build().AppendWire(nil)
	w2 := build().AppendWire(nil)
	if !bytes.Equal(w1, w2) {
		t.Fatal("wire encoding is not deterministic")
	}
}

// TestLedgerConvergence drives random increments on independent replicas
// with random pairwise merges (including replayed stale payloads) and
// asserts all replicas converge to the exact per-subject ground truth —
// the CRDT property the partition-heal chaos driver depends on.
func TestLedgerConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const replicas = 5
	ls := make([]*Ledger, replicas)
	for i := range ls {
		ls[i] = NewLedger(fmt.Sprintf("r%d", i))
	}
	truth := map[string]int64{}
	subjects := []string{"s0", "s1", "s2"}

	var stale [][]byte
	for step := 0; step < 400; step++ {
		switch rng.Intn(3) {
		case 0: // local observation
			r, s := rng.Intn(replicas), subjects[rng.Intn(len(subjects))]
			d := uint64(1 + rng.Intn(3))
			ls[r].Inc(s, d)
			truth[s] += int64(d)
		case 1: // pairwise merge
			a, b := rng.Intn(replicas), rng.Intn(replicas)
			payload := ls[a].AppendWire(nil)
			stale = append(stale, payload)
			if _, err := ls[b].MergeWire(payload); err != nil {
				t.Fatal(err)
			}
		case 2: // replay an old payload — must never double-count
			if len(stale) > 0 {
				p := stale[rng.Intn(len(stale))]
				if _, err := ls[rng.Intn(replicas)].MergeWire(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Full mesh exchange to converge.
	for round := 0; round < 2; round++ {
		for i := range ls {
			p := ls[i].AppendWire(nil)
			for j := range ls {
				if i == j {
					continue
				}
				if _, err := ls[j].MergeWire(p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i, l := range ls {
		for _, s := range subjects {
			if got := l.Value(s); got != truth[s] {
				t.Fatalf("replica %d Value(%s) = %d, want %d", i, s, got, truth[s])
			}
		}
	}
}

func TestLedgerMergeWireRejects(t *testing.T) {
	good := NewLedger("r1")
	good.Inc("s", 1)
	valid := good.AppendWire(nil)

	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"bad version", []byte{99, 0}},
		{"truncated", valid[:len(valid)-2]},
		{"trailing bytes", append(append([]byte{}, valid...), 0xAA)},
		{"huge subject count", append([]byte{ledgerWireVersion}, 0xFF, 0xFF, 0x7F)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLedger("r2")
			if _, err := l.MergeWire(tc.payload); err == nil {
				t.Fatalf("MergeWire(%s) accepted malformed payload", tc.name)
			}
			if len(l.Values()) != 0 {
				t.Fatalf("rejected payload mutated ledger: %v", l.Values())
			}
		})
	}

	// Oversized ID length must be rejected too.
	l := NewLedger("r3")
	if _, err := l.MergeWire(encodeLedger(wireSubject{"s", []string{strings.Repeat("x", maxLedgerIDLen+1)}, nil})); err == nil {
		t.Fatal("oversized replica ID accepted")
	}
}

func TestLedgerValues(t *testing.T) {
	l := NewLedger("r1")
	l.Inc("a", 4)
	l.Pardon("a", 1)
	l.Inc("b", 2)
	want := map[string]int64{"a": 3, "b": 2}
	if got := l.Values(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Values = %v, want %v", got, want)
	}
}

// wireSubject is one subject of a hand-built ledger payload: each listed
// replica carries a count of 1 on its side.
type wireSubject struct {
	id   string
	p, n []string
}

// encodeLedger builds a ledger payload in AppendWire's format from subjects
// as given: unsorted, duplicates kept, bounds unchecked.
func encodeLedger(subjects ...wireSubject) []byte {
	b := binary.AppendUvarint([]byte{ledgerWireVersion}, uint64(len(subjects)))
	appendString := func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	for _, s := range subjects {
		b = appendString(b, s.id)
		for _, side := range [][]string{s.p, s.n} {
			b = binary.AppendUvarint(b, uint64(len(side)))
			for _, r := range side {
				b = binary.AppendUvarint(appendString(b, r), 1)
			}
		}
	}
	return b
}

// names returns n distinct IDs with the given prefix.
func names(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return out
}

// subjectsPayload is a payload of one increment by replica for each subject.
func subjectsPayload(replica string, subjects []string) []byte {
	ws := make([]wireSubject, len(subjects))
	for i, s := range subjects {
		ws[i] = wireSubject{id: s, p: []string{replica}}
	}
	return encodeLedger(ws...)
}

// TestFreshLedgerAcceptsEveryAppendWire: whatever a ledger accepts or
// records, its AppendWire stays within what a peer's MergeWire accepts, so
// one honest node cannot cut itself off from every exchange.
func TestFreshLedgerAcceptsEveryAppendWire(t *testing.T) {
	accepts := func(t *testing.T, l *Ledger) {
		t.Helper()
		if _, err := NewLedger("fresh").MergeWire(l.AppendWire(nil)); err != nil {
			t.Fatalf("a fresh ledger rejects this ledger's AppendWire: %v", err)
		}
	}

	t.Run("subjects", func(t *testing.T) {
		l := NewLedger("r1")
		if _, err := l.MergeWire(subjectsPayload("a", names("s", maxLedgerSubjects))); err != nil {
			t.Fatal(err)
		}
		// Each payload alone is within bounds; together they are not.
		if _, err := l.MergeWire(subjectsPayload("b", names("t", maxLedgerSubjects))); err == nil {
			t.Error("a merge taking the ledger past the subject bound was accepted")
		}
		if got := len(l.Values()); got != maxLedgerSubjects {
			t.Errorf("ledger holds %d subjects, want %d: a rejected payload is applied whole or not at all", got, maxLedgerSubjects)
		}
		l.Inc("one-too-many", 1)
		l.Pardon("one-too-many", 1)
		if got := len(l.Values()); got != maxLedgerSubjects {
			t.Errorf("ledger holds %d subjects after Inc at the bound, want %d", got, maxLedgerSubjects)
		}
		// Evidence about subjects already held is still recorded.
		l.Inc("s0000", 2)
		if got := l.Value("s0000"); got != 3 {
			t.Errorf("Value(s0000) = %d, want 3", got)
		}
		// So is a payload that only raises held subjects.
		if _, err := l.MergeWire(subjectsPayload("c", names("s", 10))); err != nil {
			t.Errorf("a payload adding no subject was rejected: %v", err)
		}
		accepts(t, l)
	})

	t.Run("replicas", func(t *testing.T) {
		l := NewLedger("self")
		if _, err := l.MergeWire(encodeLedger(wireSubject{"s", names("a", maxLedgerReplicas), names("a", maxLedgerReplicas)})); err != nil {
			t.Fatal(err)
		}
		if _, err := l.MergeWire(encodeLedger(wireSubject{"s", names("b", 1), nil})); err == nil {
			t.Error("a merge taking a subject past the replica bound was accepted")
		}
		// The same subject twice in one payload counts once per replica.
		dup := wireSubject{"u", names("c", maxLedgerReplicas/2+1), nil}
		if _, err := l.MergeWire(encodeLedger(dup, wireSubject{"u", names("d", maxLedgerReplicas/2+1), nil})); err == nil {
			t.Error("a payload repeating a subject past the replica bound was accepted")
		}
		if _, err := l.MergeWire(encodeLedger(dup, dup)); err != nil {
			t.Errorf("a payload repeating a subject within the replica bound was rejected: %v", err)
		}
		l.Inc("s", 1)
		l.Pardon("s", 1)
		if got := l.Value("s"); got != 0 {
			t.Errorf("Value(s) = %d, want 0: no room for this replica's entry", got)
		}
		accepts(t, l)
	})

	t.Run("ids", func(t *testing.T) {
		long := strings.Repeat("x", maxLedgerIDLen+1)
		l := NewLedger("r1")
		l.Inc(long, 1)
		if got := len(l.Values()); got != 0 {
			t.Errorf("ledger holds %d subjects after an Inc with an oversized ID", got)
		}
		accepts(t, l)
		self := NewLedger(long)
		self.Inc("s", 1)
		accepts(t, self)
	})
}
