package eval

import "testing"

func TestRunGossipBench(t *testing.T) {
	r, err := RunGossipBench(GossipBenchOptions{Seed: 1, Nodes: 48, Seeds: 2, Rounds: 40})
	if err != nil {
		t.Fatal(err)
	}
	if r.ConvergedRounds <= 0 || r.ConvergedRounds > 40 {
		t.Fatalf("converged rounds out of range: %+v", r)
	}
	if r.BlacklistReentries != 0 {
		t.Fatalf("blacklist re-entries in a clean bench: %+v", r)
	}
	if r.ChurnReconvergedRounds == 0 {
		t.Fatalf("churned run never re-converged: %+v", r)
	}
	if r.MinInDegree <= 0 {
		t.Fatalf("a node ended unreferenced: %+v", r)
	}
	if r.String() == "" {
		t.Fatal("empty rendering")
	}
}

// TestGossipBenchDeterminism: the measured convergence metrics (not the
// wall-clock ns/round) are pure functions of the options.
func TestGossipBenchDeterminism(t *testing.T) {
	a, err := RunGossipBench(GossipBenchOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunGossipBench(GossipBenchOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a.ConvergedRounds != b.ConvergedRounds ||
		a.ChurnReconvergedRounds != b.ChurnReconvergedRounds ||
		a.MinInDegree != b.MinInDegree || a.MaxInDegree != b.MaxInDegree {
		t.Fatalf("metrics differ across identical seeds:\n%+v\n%+v", a, b)
	}
}
