package eval

import (
	"fmt"
	"strings"

	"cyclosa/internal/sensitivity"
	"cyclosa/internal/stats"
)

// AdaptiveKResult reproduces Fig 7: the distribution of the number of fake
// queries CYCLOSA's adaptive protection actually chooses for the testing
// workload, with kmax = 7.
type AdaptiveKResult struct {
	// KMax is the protection ceiling.
	KMax int
	// Counts[k] is the number of test queries assigned exactly k fakes.
	Counts []int
	// Queries is the total assessed.
	Queries int
	// SemanticSensitive counts queries that hit the semantic rule (always
	// kmax).
	SemanticSensitive int
}

// RunAdaptiveK replays the testing queries of every user through a per-user
// analyzer (linkability primed with the user's training history, updated as
// testing queries are issued) and records the chosen k.
func RunAdaptiveK(w *World, maxQueries int) *AdaptiveKResult {
	res := &AdaptiveKResult{KMax: w.Cfg.KMax, Counts: make([]int, w.Cfg.KMax+1)}

	analyzers := make(map[string]*sensitivity.Analyzer)
	sample := w.TestSample(maxQueries)
	for _, q := range sample {
		analyzer, ok := analyzers[q.User]
		if !ok {
			analyzer = w.NewAnalyzerForUser(q.User, DetectorCombined)
			analyzers[q.User] = analyzer
		}
		a := analyzer.Assess(q.Text)
		analyzer.RecordQuery(a)
		res.Counts[a.K]++
		res.Queries++
		if a.SemanticSensitive {
			res.SemanticSensitive++
		}
	}
	return res
}

// CDF returns the cumulative fraction of queries with k' <= k.
func (r *AdaptiveKResult) CDF() []stats.Point {
	pts := make([]stats.Point, 0, len(r.Counts))
	cum := 0
	for k, c := range r.Counts {
		cum += c
		pts = append(pts, stats.Point{X: float64(k), Y: float64(cum) / float64(r.Queries)})
	}
	return pts
}

// FractionAt returns the fraction of queries assigned exactly k fakes.
func (r *AdaptiveKResult) FractionAt(k int) float64 {
	if k < 0 || k >= len(r.Counts) || r.Queries == 0 {
		return 0
	}
	return float64(r.Counts[k]) / float64(r.Queries)
}

// MeanK returns the average number of fakes per query — the traffic savings
// versus fixed k = kmax.
func (r *AdaptiveKResult) MeanK() float64 {
	if r.Queries == 0 {
		return 0
	}
	total := 0
	for k, c := range r.Counts {
		total += k * c
	}
	return float64(total) / float64(r.Queries)
}

// String renders the CDF series of Fig 7.
func (r *AdaptiveKResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7: CDF of the actual number of fake queries (kmax=%d, %d queries)\n", r.KMax, r.Queries)
	b.WriteString("k    queries  CDF\n")
	for _, p := range r.CDF() {
		fmt.Fprintf(&b, "%-4.0f %-8d %.1f%%\n", p.X, r.Counts[int(p.X)], 100*p.Y)
	}
	fmt.Fprintf(&b, "mean k = %.2f (fixed-k system would send %d); %.1f%% semantically sensitive\n",
		r.MeanK(), r.KMax, 100*float64(r.SemanticSensitive)/float64(max(1, r.Queries)))
	b.WriteString("(paper: ~25% need no fakes, ~50% need <= 3, ~35% need the maximum)\n")
	return b.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
