package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestTraceRingOrderAndEviction(t *testing.T) {
	r := NewTraceRing(4)
	if len(r.slots) != 4 {
		t.Fatalf("cap = %d, want 4", len(r.slots))
	}
	for i := 0; i < 6; i++ {
		r.Record(Trace{Op: "forward", Outcome: "ok", TotalNS: int64(i)})
	}
	got := r.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot len = %d, want 4", len(got))
	}
	// Newest first: 5, 4, 3, 2.
	for i, want := range []int64{5, 4, 3, 2} {
		if got[i].TotalNS != want {
			t.Errorf("snapshot[%d].TotalNS = %d, want %d", i, got[i].TotalNS, want)
		}
	}
}

func TestTraceRingEmptyAndClamp(t *testing.T) {
	if got := len(NewTraceRing(0).slots); got != 1 {
		t.Fatalf("clamped cap = %d, want 1", got)
	}
	if got := NewTraceRing(8).Snapshot(); len(got) != 0 {
		t.Fatalf("empty ring snapshot len = %d, want 0", len(got))
	}
}

func TestTraceRingConcurrentRecord(t *testing.T) {
	r := NewTraceRing(64)
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Trace{Op: "forward", Outcome: "ok", TotalNS: int64(w*1000 + i)})
				if i%17 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	got := r.Snapshot()
	if len(got) != 64 {
		t.Fatalf("snapshot len = %d, want 64 (ring full)", len(got))
	}
}

func TestTraceJSONOmitsZeroStages(t *testing.T) {
	b, err := json.Marshal(Trace{Op: "serve", Peer: "relay-1", Outcome: "ok", TotalNS: 10, EngineNS: 7})
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, absent := range []string{"encrypt_ns", "deliver_ns", "splice_ns", "decrypt_ns", "seal_ns"} {
		if strings.Contains(s, absent) {
			t.Errorf("zero stage %q should be omitted from %s", absent, s)
		}
	}
	for _, present := range []string{`"op":"serve"`, `"peer":"relay-1"`, `"engine_ns":7`} {
		if !strings.Contains(s, present) {
			t.Errorf("missing %q in %s", present, s)
		}
	}
}
