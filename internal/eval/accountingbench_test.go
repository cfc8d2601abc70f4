package eval

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"cyclosa/internal/testutil"
)

// TestRunAccountingBench drives the admission bench at test scale: the
// closed loop must offer at least twice the per-client rate, the edge must
// shed some of it with the typed error, both sides of the split must agree
// with the server's limiter counters, and the hot path must keep its
// allocation budget.
func TestRunAccountingBench(t *testing.T) {
	r, err := RunAccountingBench(AccountingBenchOptions{
		Seed:              5,
		ClientQPS:         20,
		Burst:             4,
		Clients:           2,
		Duration:          150 * time.Millisecond,
		HotPathIterations: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Throttled == 0 {
		t.Fatalf("nothing throttled at 2x offered load: %+v", r)
	}
	if r.Admitted == 0 {
		t.Fatalf("nothing admitted: %+v", r)
	}
	if r.OfferedPerClientPerSec < 2*r.ClientQPS {
		t.Fatalf("offered %.0f/client/s below the 2x bar (%.0f): closed loop too slow",
			r.OfferedPerClientPerSec, 2*r.ClientQPS)
	}
	// The limiter saw one extra admitted query per client (warmup).
	if r.LimiterAdmitted != r.Admitted+uint64(r.Clients) || r.LimiterThrottled != r.Throttled {
		t.Fatalf("limiter counters disagree with client observations: %+v", r)
	}
	// Race instrumentation adds allocations (the pools drop buffers at
	// random), so the budget is checked in uninstrumented runs only.
	if !testutil.RaceEnabled {
		if r.HotPathAllocsPerOp > 3 {
			t.Fatalf("hot path blew the 3 allocs/op budget: %.2f", r.HotPathAllocsPerOp)
		}
		if r.Failed() {
			t.Fatalf("Failed() on a passing run: %+v", r)
		}
	}
	if r.String() == "" {
		t.Fatal("empty rendering")
	}

	path := filepath.Join(t.TempDir(), "BENCH_accounting.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back AccountingBenchResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Throttled != r.Throttled || back.Benchmark == "" {
		t.Fatalf("JSON round trip mangled the result: %+v", back)
	}
}

// TestAccountingBenchFailed covers the acceptance bar.
func TestAccountingBenchFailed(t *testing.T) {
	ok := AccountingBenchResult{ClientQPS: 50, OfferedPerClientPerSec: 200, Throttled: 10, HotPathAllocsPerOp: 2}
	if ok.Failed() {
		t.Error("passing run reported failed")
	}
	for _, bad := range []AccountingBenchResult{
		{ClientQPS: 50, OfferedPerClientPerSec: 200, Throttled: 0, HotPathAllocsPerOp: 2},
		{ClientQPS: 50, OfferedPerClientPerSec: 60, Throttled: 10, HotPathAllocsPerOp: 2},
		{ClientQPS: 50, OfferedPerClientPerSec: 200, Throttled: 10, HotPathAllocsPerOp: 4},
	} {
		if !bad.Failed() {
			t.Errorf("bad run not reported failed: %+v", bad)
		}
	}
}
