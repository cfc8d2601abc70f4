package textproc

import "sort"

// ExponentialSmoothing aggregates a list of similarity scores into a single
// value, giving more weight to the highest similarities. Following the paper
// (§V-A2, §VII-E) and SimAttack, the scores are ranked in ascending order and
// folded with smoothing factor alpha:
//
//	s = x_1
//	s = alpha·x_i + (1-alpha)·s   for i = 2..n (ascending order)
//
// so the largest scores are applied last and dominate the aggregate. An empty
// input yields 0. alpha must be in (0, 1]; SimAttack uses 0.5.
func ExponentialSmoothing(scores []float64, alpha float64) float64 {
	if len(scores) == 0 {
		return 0
	}
	sorted := make([]float64, len(scores))
	copy(sorted, scores)
	sort.Float64s(sorted)
	return smoothAscending(sorted[0], sorted[1:], alpha)
}

// smoothAscending folds scores, already in ascending order, onto s.
func smoothAscending(s float64, scores []float64, alpha float64) float64 {
	for _, x := range scores {
		s = alpha*x + (1-alpha)*s
	}
	return s
}

// smoothRepeated folds n scores of the same value x onto s, as smoothAscending
// does for n equal elements. The fold converges on a fixed point, after which
// further steps change nothing and are skipped.
func smoothRepeated(s, x float64, n int, alpha float64) float64 {
	for ; n > 0; n-- {
		next := alpha*x + (1-alpha)*s
		if next == s {
			break
		}
		s = next
	}
	return s
}

// DefaultSmoothingAlpha is the smoothing factor used by SimAttack and by the
// CYCLOSA linkability assessment.
const DefaultSmoothingAlpha = 0.5
