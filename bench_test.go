// Reproduction benchmarks: one per table, figure and ablation of the paper
// (Table I, §VII-C crowd campaign, Table II, Fig 5–8d, the fake-source, EPC,
// adaptive-k, churn and learning-adversary ablations). Each reports the
// reproduced quantities via b.ReportMetric and fails when the claim the
// paper draws from them does not hold, so
//
//	go test -run '^$' -bench . -benchtime 1x .
//
// prints the paper's numbers next to ours and is itself a check. Nothing
// here is a stopwatch: the ns/op column measures the experiment driver, not
// the system. How fast a relay or a protected search is, layer by layer, is
// benchmark/run.sh.
package cyclosa_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclosa/internal/enclave"
	"cyclosa/internal/eval"
)

// benchWorld is shared across benchmarks (building it is expensive).
var (
	benchOnce sync.Once
	benchW    *eval.World
	benchWErr error
)

func getBenchWorld(b *testing.B) *eval.World {
	b.Helper()
	benchOnce.Do(func() {
		benchW, benchWErr = eval.NewWorld(eval.WorldConfig{
			Seed:               1,
			NumUsers:           80,
			MeanQueriesPerUser: 80,
			EngineDocs:         2000,
			LDADocs:            800,
			LDATopics:          10,
			LDAIterations:      50,
		})
	})
	if benchWErr != nil {
		b.Fatal(benchWErr)
	}
	return benchW
}

// claim fails the benchmark when a reproduced quantity contradicts the
// paper.
func claim(b *testing.B, holds bool, format string, args ...any) {
	b.Helper()
	if !holds {
		b.Errorf("claim does not reproduce: "+format, args...)
	}
}

// --- Tables ---------------------------------------------------------------

// BenchmarkTable1PropertyMatrix regenerates Table I.
func BenchmarkTable1PropertyMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(eval.RenderTable1()) == 0 {
			b.Fatal("empty table")
		}
	}
	c := eval.PropertyMatrix()[eval.MechCyclosa]
	claim(b, c.Unlinkability && c.Indistinguishability && c.Accuracy && c.Scalability,
		"CYCLOSA must provide all four properties, got %+v", c)
}

// BenchmarkCrowdCampaign regenerates the §VII-C sensitivity statistic.
func BenchmarkCrowdCampaign(b *testing.B) {
	w := getBenchWorld(b)
	var frac float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frac = eval.RunCrowdCampaign(w, eval.CrowdOptions{Queries: 2000}).SensitiveFraction
	}
	b.ReportMetric(100*frac, "%sensitive")
	claim(b, frac > 0.06 && frac < 0.35, "sensitive fraction %.3f, paper 0.1574", frac)
}

// BenchmarkTable2Categorizer regenerates Table II.
func BenchmarkTable2Categorizer(b *testing.B) {
	w := getBenchWorld(b)
	var res *eval.CategorizerResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunCategorizerAccuracy(w, 2000)
	}
	precision := map[eval.DetectorKind]float64{}
	for _, row := range res.Rows {
		kind := strings.ReplaceAll(row.Kind.String(), " ", "")
		b.ReportMetric(row.Precision, fmt.Sprintf("precision[%s]", kind))
		b.ReportMetric(row.Recall, fmt.Sprintf("recall[%s]", kind))
		precision[row.Kind] = row.Precision
	}
	claim(b, precision[eval.DetectorCombined] >= precision[eval.DetectorWordNet],
		"WordNet + LDA precision %.2f below WordNet alone %.2f",
		precision[eval.DetectorCombined], precision[eval.DetectorWordNet])
}

// --- Figures --------------------------------------------------------------

// BenchmarkFig5ReIdentification regenerates the Fig 5 attack comparison.
func BenchmarkFig5ReIdentification(b *testing.B) {
	w := getBenchWorld(b)
	var res *eval.ReIdentificationResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunReIdentification(w, eval.ReIdentificationOptions{K: 7, MaxQueries: 250})
	}
	for _, m := range eval.AllMechanisms {
		b.ReportMetric(100*res.Rates[m], fmt.Sprintf("%%reid[%s]", m))
	}
	cyc, tor := res.Rates[eval.MechCyclosa], res.Rates[eval.MechTOR]
	claim(b, cyc <= res.Rates[eval.MechXSearch], "CYCLOSA %.3f re-identifies more than X-SEARCH %.3f", cyc, res.Rates[eval.MechXSearch])
	claim(b, cyc < tor/3, "CYCLOSA %.3f not well below TOR %.3f (paper: 4%% vs 36%%)", cyc, tor)
}

// BenchmarkFig6Accuracy regenerates the Fig 6 accuracy comparison.
func BenchmarkFig6Accuracy(b *testing.B) {
	w := getBenchWorld(b)
	var res *eval.AccuracyResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunAccuracy(w, eval.AccuracyOptions{K: 3, MaxQueries: 60})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Completeness, fmt.Sprintf("completeness[%s]", row.Mechanism))
		if row.Mechanism == eval.MechCyclosa {
			claim(b, row.Correctness > 0.999 && row.Completeness > 0.999,
				"CYCLOSA accuracy %.3f/%.3f, want exact results", row.Correctness, row.Completeness)
		}
	}
}

// BenchmarkFig7AdaptiveK regenerates the Fig 7 adaptive-k distribution.
func BenchmarkFig7AdaptiveK(b *testing.B) {
	w := getBenchWorld(b)
	var res *eval.AdaptiveKResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunAdaptiveK(w, 2000)
	}
	b.ReportMetric(res.MeanK(), "mean-k")
	b.ReportMetric(100*res.FractionAt(0), "%k=0")
	b.ReportMetric(100*res.FractionAt(res.KMax), "%k=max")
	claim(b, res.FractionAt(0) > 0.05 && res.FractionAt(res.KMax) > 0.05,
		"no mass at k=0 (%.3f) or no jump at kmax (%.3f)", res.FractionAt(0), res.FractionAt(res.KMax))
}

// BenchmarkFig8aLatency regenerates the Fig 8a latency comparison.
func BenchmarkFig8aLatency(b *testing.B) {
	w := getBenchWorld(b)
	var res *eval.LatencyResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunLatency(w, eval.LatencyOptions{Queries: 60, K: 3, NetworkNodes: 16})
		if err != nil {
			b.Fatal(err)
		}
	}
	median := map[string]time.Duration{}
	for _, s := range res.Series {
		median[s.Label] = s.Median()
		b.ReportMetric(s.Median().Seconds(), fmt.Sprintf("median-s[%s]", s.Label))
	}
	claim(b, median["Direct"] < median["CYCLOSA"] && median["CYCLOSA"] < median["TOR"]/10,
		"medians Direct %v, CYCLOSA %v, TOR %v: want Direct < CYCLOSA ≪ TOR", median["Direct"], median["CYCLOSA"], median["TOR"])
}

// BenchmarkFig8bLatencyVsK regenerates the Fig 8b k-sweep.
func BenchmarkFig8bLatencyVsK(b *testing.B) {
	w := getBenchWorld(b)
	var res *eval.LatencyVsKResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunLatencyVsK(w, 40, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Series {
		b.ReportMetric(s.Median().Seconds(), fmt.Sprintf("median-s[%s]", s.Label))
	}
	k0, k7 := res.Series[0].Median(), res.Series[len(res.Series)-1].Median()
	claim(b, k0 < k7 && k7 < 2*time.Second, "median k=0 %v, k=7 %v: want growth with k, k=7 near the paper's 1.226s", k0, k7)
}

// BenchmarkFig8dLoadBalancing regenerates the Fig 8d simulation.
func BenchmarkFig8dLoadBalancing(b *testing.B) {
	w := getBenchWorld(b)
	var res *eval.LoadBalancingResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunLoadBalancing(w, eval.LoadBalancingOptions{Users: 80})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.XSearchHourlyInduced(), "xsearch-req/h")
	b.ReportMetric(res.CyclosaMaxPerNodeHourly(), "cyclosa-max-req/h/node")
	claim(b, res.XSearchHourlyInduced() > res.EngineLimitPerHour && res.CyclosaRejected == 0,
		"X-SEARCH induces %.0f req/h against a %.0f limit, CYCLOSA lost %d queries: want the proxy over the limit and no CYCLOSA loss",
		res.XSearchHourlyInduced(), res.EngineLimitPerHour, res.CyclosaRejected)
}

// --- Ablations --------------------------------------------------------------

// BenchmarkAblationFakeSource compares re-identification of CYCLOSA-style
// individual queries when fakes come from replayed past queries (the
// paper's design) versus RSS headlines versus dictionary noise — the design
// choice §IV argues for.
func BenchmarkAblationFakeSource(b *testing.B) {
	w := getBenchWorld(b)
	var res *eval.FakeSourceResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunFakeSourceAblation(w, 7, 200)
	}
	for name, rate := range res.Rates {
		b.ReportMetric(100*rate, fmt.Sprintf("%%reid[%s]", name))
	}
	past := res.Misattributions["past-queries"]
	claim(b, past > res.Misattributions["rss"] && past > res.Misattributions["dictionary"],
		"past-query fakes misattributed %.3f, rss %.3f, dictionary %.3f: want past queries to confuse the adversary most",
		past, res.Misattributions["rss"], res.Misattributions["dictionary"])
}

// BenchmarkAblationEPCPaging shows the SGX paging cliff of the EPC model:
// relay table access cost inside versus beyond the EPC limit (why the paper
// keeps the enclave at 1.7 MB).
func BenchmarkAblationEPCPaging(b *testing.B) {
	small := enclave.NewEPC(64 << 20)
	small.Alloc(1 << 20) // 1.7 MB-style enclave: fits
	over := enclave.NewEPC(64 << 20)
	over.Alloc(96 << 20) // oversubscribed enclave

	var inLimit, paged time.Duration
	for i := 0; i < b.N; i++ {
		inLimit += small.Touch(64 << 10)
		paged += over.Touch(64 << 10)
	}
	b.ReportMetric(float64(inLimit.Nanoseconds())/float64(b.N), "ns-touch-fit")
	b.ReportMetric(float64(paged.Nanoseconds())/float64(b.N), "ns-touch-paged")
	claim(b, paged > inLimit, "modelled paged access %v not above in-limit access %v", paged, inLimit)
}

// BenchmarkAblationAdaptiveVsFixed quantifies the traffic saved by adaptive
// protection versus always sending kmax fakes.
func BenchmarkAblationAdaptiveVsFixed(b *testing.B) {
	w := getBenchWorld(b)
	var res *eval.AdaptiveKResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunAdaptiveK(w, 1000)
	}
	fixed := float64(res.KMax)
	b.ReportMetric(res.MeanK(), "adaptive-mean-k")
	b.ReportMetric(fixed, "fixed-k")
	b.ReportMetric(100*(1-res.MeanK()/fixed), "%traffic-saved")
	claim(b, res.MeanK() < fixed, "adaptive mean k %.2f saves nothing against fixed k %.0f", res.MeanK(), fixed)
}

// BenchmarkAblationChurn measures availability under overlay churn.
func BenchmarkAblationChurn(b *testing.B) {
	w := getBenchWorld(b)
	var res *eval.ChurnResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = eval.RunChurn(w, eval.ChurnOptions{
			Nodes: 24, K: 2, FailedFractions: []float64{0, 0.25}, SearchesPerPoint: 40,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	healthy, churned := res.Points[0].Availability, res.Points[len(res.Points)-1].Availability
	b.ReportMetric(100*healthy, "%avail-healthy")
	b.ReportMetric(100*churned, "%avail-churn25")
	claim(b, healthy == 1 && churned > 0.9, "availability %.3f healthy, %.3f with 25%% dead: want no single point of failure", healthy, churned)
}

// BenchmarkAblationLearningAdversary measures the extended threat model: an
// adversary that feeds intercepted queries back into its profiles.
func BenchmarkAblationLearningAdversary(b *testing.B) {
	w := getBenchWorld(b)
	var res *eval.LearningAdversaryResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = eval.RunLearningAdversary(w, 7, 120, 3)
	}
	b.ReportMetric(res.FinalGap(), "tor/cyclosa-gap")
	b.ReportMetric(100*res.CyclosaRates[len(res.CyclosaRates)-1], "%reid-final[CYCLOSA]")
	claim(b, res.FinalGap() > 1, "a learning adversary re-identifies CYCLOSA as well as TOR (gap %.2f)", res.FinalGap())
}
