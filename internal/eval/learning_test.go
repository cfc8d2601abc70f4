package eval

import (
	"strings"
	"testing"
)

func TestLearningAdversary(t *testing.T) {
	w := getWorld(t)
	r := RunLearningAdversary(w, 7, 200, 3)
	if len(r.TORRates) != 3 || len(r.CyclosaRates) != 3 {
		t.Fatalf("rounds = %d/%d", len(r.TORRates), len(r.CyclosaRates))
	}
	// In every round, CYCLOSA's effective rate stays far below TOR's.
	for i := range r.TORRates {
		if r.CyclosaRates[i] >= r.TORRates[i] {
			t.Errorf("round %d: CYCLOSA %.3f >= TOR %.3f", i, r.CyclosaRates[i], r.TORRates[i])
		}
	}
	// Even against a learning adversary the gap stays wide (the paper's
	// 36% vs 4% is a factor ~9; demand at least 3x here).
	if tor, cyc := r.TORRates[2], r.CyclosaRates[2]; tor < 3*cyc {
		t.Errorf("final round: TOR %.3f, CYCLOSA %.3f; want a gap of at least 3x", tor, cyc)
	}
	if !strings.Contains(r.String(), "learning adversary") {
		t.Error("render broken")
	}
}

func TestLearningAdversarySingleRoundFallback(t *testing.T) {
	w := getWorld(t)
	// More rounds than the whole test split can supply: fall back to one.
	r := RunLearningAdversary(w, 3, 1, w.Test.Len()+10)
	if r.Rounds != 1 {
		t.Errorf("rounds = %d, want fallback to 1", r.Rounds)
	}
}
