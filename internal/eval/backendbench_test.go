package eval

import "testing"

func TestRunBackendBench(t *testing.T) {
	r, err := RunBackendBench(BackendBenchOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if bad := r.Violations(); len(bad) > 0 {
		t.Fatalf("brownout invariants violated: %v", bad)
	}
	if r.Searches == 0 || r.Availability <= 0 {
		t.Fatalf("bench measured nothing: %+v", r)
	}
	if r.InjectedErrors+r.InjectedHangs == 0 {
		t.Fatalf("the brownout never bit: %+v", r)
	}
	if r.Misbehaved != 0 || r.Blacklisted != 0 {
		t.Fatalf("engine failures charged to relays: %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty rendering")
	}
}
