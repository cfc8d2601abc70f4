package accounting

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLedgerMergeWire drives the accounting frame's decoder, the one that
// takes a peer's ledger off the socket. No input may panic; a rejected
// payload leaves the ledger as it was; an accepted one merged again changes
// nothing; and whatever the ledger then holds, a fresh peer accepts its
// AppendWire.
func FuzzLedgerMergeWire(f *testing.F) {
	kib := strings.Repeat("i", maxLedgerIDLen)
	for _, seed := range [][]byte{
		subjectsPayload("a", names("s", maxLedgerSubjects)),
		subjectsPayload("a", names("s", maxLedgerSubjects+1)),
		encodeLedger(wireSubject{"s", names("a", maxLedgerReplicas), names("b", maxLedgerReplicas)}),
		encodeLedger(wireSubject{"s", names("a", maxLedgerReplicas+1), nil}),
		encodeLedger(wireSubject{kib, []string{kib}, []string{kib}}),
		encodeLedger(wireSubject{kib + "x", []string{"a"}, nil}),
		encodeLedger(wireSubject{"s", []string{"a", "b"}, nil}, wireSubject{"s", []string{"b", "c"}, []string{"a"}}),
		encodeLedger(wireSubject{"held", []string{"self"}, nil}),
		{ledgerWireVersion, 0},
		{ledgerWireVersion, 1, 1, 's', 1, 1, 'a', 0, 0},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		l := NewLedger("self")
		l.Inc("held", 2)
		before := l.AppendWire(nil)
		if _, err := l.MergeWire(payload); err != nil {
			if after := l.AppendWire(nil); !bytes.Equal(after, before) {
				t.Fatalf("rejected payload (%v) changed the ledger", err)
			}
			return
		}
		merged := l.AppendWire(nil)
		changed, err := l.MergeWire(payload)
		if err != nil || len(changed) != 0 {
			t.Fatalf("second merge of an accepted payload: changed %v, err %v", changed, err)
		}
		if again := l.AppendWire(nil); !bytes.Equal(again, merged) {
			t.Fatal("second merge of an accepted payload changed the ledger")
		}
		if _, err := NewLedger("fresh").MergeWire(merged); err != nil {
			t.Fatalf("a fresh ledger rejects the merged ledger's AppendWire: %v", err)
		}
	})
}
