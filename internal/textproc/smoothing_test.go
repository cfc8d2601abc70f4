package textproc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// exponentialSmoothing is the aggregate SimilarityIndex is defined by
// (§V-A2, §VII-E, as in SimAttack): the scores ranked in ascending order and
// folded with smoothing factor alpha,
//
//	s = x_1
//	s = alpha·x_i + (1-alpha)·s   for i = 2..n (ascending order)
//
// so the largest scores are applied last and dominate. An empty input
// yields 0.
func exponentialSmoothing(scores []float64, alpha float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	sorted := slices.Clone(scores)
	slices.Sort(sorted)
	s := sorted[0]
	for _, x := range sorted[1:] {
		s = alpha*x + (1-alpha)*s
	}
	return s
}

func TestExponentialSmoothing(t *testing.T) {
	tests := []struct {
		name   string
		scores []float64
		alpha  float64
		want   float64
	}{
		{"empty", nil, 0.5, 0},
		{"single", []float64{0.7}, 0.5, 0.7},
		{"two ascending", []float64{0.2, 0.8}, 0.5, 0.5},
		{"two given descending", []float64{0.8, 0.2}, 0.5, 0.5},
		{"three", []float64{0.1, 0.2, 0.4}, 0.5, 0.5*0.4 + 0.5*(0.5*0.2+0.5*0.1)},
		{"alpha one keeps max", []float64{0.1, 0.9, 0.3}, 1.0, 0.9},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := exponentialSmoothing(tt.scores, tt.alpha)
			if !almostEqual(got, tt.want) {
				t.Errorf("exponentialSmoothing(%v, %v) = %v, want %v", tt.scores, tt.alpha, got, tt.want)
			}
		})
	}
}

// The aggregate must be order-invariant (scores are sorted internally) and
// bounded by the min and max of the input.
func TestExponentialSmoothingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n uint8) bool {
		size := int(n%20) + 1
		scores := make([]float64, size)
		for i := range scores {
			scores[i] = rng.Float64()
		}
		shuffled := make([]float64, size)
		copy(shuffled, scores)
		rng.Shuffle(size, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		s1 := exponentialSmoothing(scores, DefaultSmoothingAlpha)
		s2 := exponentialSmoothing(shuffled, DefaultSmoothingAlpha)
		if !almostEqual(s1, s2) {
			return false
		}
		lo, hi := scores[0], scores[0]
		for _, x := range scores {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		return s1 >= lo-1e-9 && s1 <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Input slice must not be mutated.
func TestExponentialSmoothingDoesNotMutate(t *testing.T) {
	scores := []float64{0.9, 0.1, 0.5}
	exponentialSmoothing(scores, 0.5)
	if scores[0] != 0.9 || scores[1] != 0.1 || scores[2] != 0.5 {
		t.Errorf("input mutated: %v", scores)
	}
}

// A higher top similarity should never lower the aggregate: adding weight at
// the top end is monotone.
func TestExponentialSmoothingMonotoneInMax(t *testing.T) {
	base := []float64{0.1, 0.2, 0.3}
	raised := []float64{0.1, 0.2, 0.9}
	if exponentialSmoothing(raised, 0.5) <= exponentialSmoothing(base, 0.5) {
		t.Error("raising the maximum similarity did not raise the aggregate")
	}
}
