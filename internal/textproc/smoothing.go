package textproc

// smoothRepeated folds n scores of the same value x onto s, as the ascending
// fold of SimilarityIndex's definition does for n equal elements. The fold
// converges on a fixed point, after which further steps change nothing and
// are skipped.
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
