package eval

import (
	"testing"
	"time"
)

// TestRunAccountingBench drives the admission bench at test scale: the
// closed loop must offer at least twice the per-client rate, the edge must
// shed some of it with the typed error, and both sides of the split must
// agree with the server's limiter counters.
func TestRunAccountingBench(t *testing.T) {
	r, err := RunAccountingBench(AccountingBenchOptions{
		Seed:      5,
		ClientQPS: 20,
		Burst:     4,
		Clients:   2,
		Duration:  150 * time.Millisecond,
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
	if bad := r.Violations(); len(bad) > 0 {
		t.Fatalf("violations on a passing run: %v", bad)
	}
	if r.String() == "" {
		t.Fatal("empty rendering")
	}
}

// TestAccountingBenchFailed covers the acceptance bar.
func TestAccountingBenchFailed(t *testing.T) {
	ok := AccountingBenchResult{ClientQPS: 50, OfferedPerClientPerSec: 200, Throttled: 10}
	if bad := ok.Violations(); len(bad) != 0 {
		t.Errorf("passing run reported violations: %v", bad)
	}
	for _, bad := range []AccountingBenchResult{
		{ClientQPS: 50, OfferedPerClientPerSec: 200, Throttled: 0},
		{ClientQPS: 50, OfferedPerClientPerSec: 60, Throttled: 10},
	} {
		if len(bad.Violations()) != 1 {
			t.Errorf("bad run reported %v, want one violation: %+v", bad.Violations(), bad)
		}
	}
}
