package eval

import (
	"fmt"
	"strings"
	"testing"
)

// smallPrivacyOpts is the bounded profile the unit tests run on (the CI
// bench job uses a larger one; both are deterministic in the seed).
func smallPrivacyOpts() PrivacyBenchOptions {
	return PrivacyBenchOptions{
		Seed:        7,
		Users:       40,
		MeanQueries: 60,
		Queries:     120,
		WANNodes:    400,
		WANRounds:   8,
	}
}

func TestRunPrivacyBench(t *testing.T) {
	r, err := RunPrivacyBench(smallPrivacyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Sweep) != 3 {
		t.Fatalf("sweep has %d entries, want 3 (k=0,3,7)", len(r.Sweep))
	}
	for i, kr := range r.Sweep {
		if kr.Precision < 0 || kr.Precision > 1 || kr.Recall < 0 || kr.Recall > 1 || kr.Rate < 0 || kr.Rate > 1 {
			t.Errorf("k=%d: metrics out of [0,1]: %+v", kr.K, kr)
		}
		if kr.Reals != 120 {
			t.Errorf("k=%d: replayed %d reals, want 120", kr.K, kr.Reals)
		}
		if want := 120 * (kr.K + 1); kr.Attempts != want {
			t.Errorf("k=%d: %d attempts, want %d (reals plus fakes)", kr.K, kr.Attempts, want)
		}
		if i > 0 && kr.Rate >= r.Sweep[i-1].Rate {
			t.Errorf("rate did not fall with k: %.4f at k=%d vs %.4f at k=%d",
				kr.Rate, kr.K, r.Sweep[i-1].Rate, r.Sweep[i-1].K)
		}
	}
	// Recall is rate-of-reals and fakes never add correct links, so it must
	// be identical across the sweep (the adversary scores the same reals).
	for _, kr := range r.Sweep[1:] {
		if kr.Recall != r.Sweep[0].Recall {
			t.Errorf("recall changed with k: %.4f at k=%d vs %.4f at k=0", kr.Recall, kr.K, r.Sweep[0].Recall)
		}
	}
	if r.WAN == nil {
		t.Fatalf("WAN phase missing")
	}
	if len(r.WAN.Violations) > 0 {
		t.Errorf("WAN phase violations: %v", r.WAN.Violations)
	}
	if bad := r.Violations(); len(bad) > 0 {
		t.Errorf("privacy violations on the seeded profile: %v", bad)
	}
}

func TestPrivacyBenchDeterminism(t *testing.T) {
	opts := smallPrivacyOpts()
	opts.WANNodes = -1 // sweep determinism is the point; skip the WAN phase
	a, err := RunPrivacyBench(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPrivacyBench(opts)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := fmt.Sprintf("%+v", a.Sweep), fmt.Sprintf("%+v", b.Sweep); fa != fb {
		t.Fatalf("sweeps diverge across identical runs:\n--- a ---\n%s\n--- b ---\n%s", fa, fb)
	}
}

func TestPrivacyBenchGate(t *testing.T) {
	opts := smallPrivacyOpts()
	opts.WANNodes = -1
	opts.MaxRateAtKMax = 0.0001 // no run clears this: the gate must fire
	r, err := RunPrivacyBench(opts)
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Join(r.Violations(), "\n")
	if !strings.Contains(bad, "exceeds") {
		t.Fatalf("violations do not name the bound: %q", bad)
	}
}

func TestPrivacyBenchBadOptions(t *testing.T) {
	cases := []struct {
		name string
		opts PrivacyBenchOptions
	}{
		{"descending ks", PrivacyBenchOptions{Ks: []int{7, 3}}},
		{"duplicate ks", PrivacyBenchOptions{Ks: []int{3, 3}}},
		{"negative k", PrivacyBenchOptions{Ks: []int{-1, 3}}},
		{"negative queries", PrivacyBenchOptions{Queries: -5}},
	}
	for _, tc := range cases {
		if _, err := RunPrivacyBench(tc.opts); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}
