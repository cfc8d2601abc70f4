package eval

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// The test world is smaller than the default experiment world to keep test
// runtimes reasonable; experiment shapes must already hold at this scale.
var (
	worldOnce sync.Once
	testWorld *World
	worldErr  error
)

func getWorld(t *testing.T) *World {
	t.Helper()
	worldOnce.Do(func() {
		testWorld, worldErr = NewWorld(WorldConfig{
			Seed:               91,
			NumUsers:           60,
			MeanQueriesPerUser: 70,
			EngineDocs:         1200,
			LDADocs:            500,
			LDATopics:          8,
			LDAIterations:      40,
		})
	})
	if worldErr != nil {
		t.Fatal(worldErr)
	}
	return testWorld
}

func TestWorldConstruction(t *testing.T) {
	w := getWorld(t)
	if w.Train.Len() == 0 || w.Test.Len() == 0 {
		t.Fatal("empty splits")
	}
	if w.Train.Len() < w.Test.Len() {
		t.Error("train should be the 2/3 split")
	}
	if len(w.LDA) != 1 {
		t.Errorf("LDA models = %d", len(w.LDA))
	}
	if got := len(w.TestSample(50)); got != 50 {
		t.Errorf("TestSample(50) = %d", got)
	}
	if got := len(w.TestSample(0)); got != w.Test.Len() {
		t.Errorf("TestSample(0) = %d, want all", got)
	}
}

func TestTable1PropertyMatrix(t *testing.T) {
	m := PropertyMatrix()
	if len(m) != 6 {
		t.Fatalf("mechanisms = %d", len(m))
	}
	cyclosa := m[MechCyclosa]
	if !cyclosa.Unlinkability || !cyclosa.Indistinguishability || !cyclosa.Accuracy || !cyclosa.Scalability {
		t.Error("CYCLOSA must provide all four properties")
	}
	torProps := m[MechTOR]
	if torProps.Indistinguishability {
		t.Error("TOR does not obfuscate")
	}
	if !m[MechPEAS].Unlinkability || m[MechPEAS].Scalability {
		t.Error("PEAS row wrong")
	}
	out := RenderTable1()
	for _, want := range []string{"Unlinkability", "CYCLOSA", "yes", "no"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I output missing %q:\n%s", want, out)
		}
	}
}

func TestCrowdCampaign(t *testing.T) {
	w := getWorld(t)
	r := RunCrowdCampaign(w, CrowdOptions{Queries: 2000})
	if r.Queries == 0 {
		t.Fatal("no annotated queries")
	}
	// The campaign must land near the workload's true sensitive fraction
	// (paper: 15.74%); annotator noise moves it only slightly.
	if r.SensitiveFraction < 0.06 || r.SensitiveFraction > 0.35 {
		t.Errorf("crowd sensitive fraction = %.3f, implausible", r.SensitiveFraction)
	}
	if !strings.Contains(r.String(), "15.74%") {
		t.Errorf("String() missing paper reference: %s", r.String())
	}
}

// The paper notes TOR's Fig 5 bar equals PEAS/X-SEARCH/CYCLOSA at k=0:
// without fakes, all unlinkability-only pipelines expose the same surface.
func TestFig5KZeroEquivalence(t *testing.T) {
	w := getWorld(t)
	r := RunReIdentification(w, ReIdentificationOptions{K: 1, MaxQueries: 200})
	r0 := runCyclosaAttack(w, w.NewAdversary(), w.TestSample(200), 0, nil)
	rate0 := float64(r0.successes) / float64(r0.attempts)
	if diff := rate0 - r.Rates[MechTOR]; diff > 0.02 || diff < -0.02 {
		t.Errorf("CYCLOSA@k=0 rate %.3f should equal TOR rate %.3f", rate0, r.Rates[MechTOR])
	}
}

func TestCrowdByTopicBreakdown(t *testing.T) {
	w := getWorld(t)
	r := RunCrowdCampaign(w, CrowdOptions{Queries: 1500})
	if len(r.ByTopic) == 0 {
		t.Fatal("no topic breakdown")
	}
	total := 0
	for _, n := range r.ByTopic {
		total += n
	}
	want := int(r.SensitiveFraction * float64(r.Queries))
	if total != want {
		t.Errorf("breakdown sums to %d, want %d", total, want)
	}
	// The selected sensitive topic must dominate the breakdown.
	if r.ByTopic["sex"] == 0 {
		t.Error("selected topic absent from breakdown")
	}
	if !strings.Contains(r.String(), "by topic") {
		t.Error("render missing breakdown")
	}
}

func TestTable2CategorizerShape(t *testing.T) {
	w := getWorld(t)
	r := RunCategorizerAccuracy(w, 2500)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byKind := map[DetectorKind]CategorizerRow{}
	for _, row := range r.Rows {
		byKind[row.Kind] = row
		if row.Precision < 0 || row.Precision > 1 || row.Recall < 0 || row.Recall > 1 {
			t.Errorf("rates out of range: %+v", row)
		}
	}
	wn, ldaRow, comb := byKind[DetectorWordNet], byKind[DetectorLDA], byKind[DetectorCombined]

	// The paper's ordering (Table II): LDA beats WordNet on precision, and
	// the combination has the best precision of all three.
	if ldaRow.Precision <= wn.Precision {
		t.Errorf("LDA precision %.2f should exceed WordNet %.2f", ldaRow.Precision, wn.Precision)
	}
	if comb.Precision < ldaRow.Precision {
		t.Errorf("combined precision %.2f should be >= LDA %.2f", comb.Precision, ldaRow.Precision)
	}
	// All tools achieve useful recall (paper: 0.83–0.89).
	for kind, row := range byKind {
		if row.Recall < 0.5 {
			t.Errorf("%v recall = %.2f, too low", kind, row.Recall)
		}
	}
	if !strings.Contains(r.String(), "WordNet + LDA") {
		t.Error("render missing combined row")
	}
}

func TestFig7AdaptiveKShape(t *testing.T) {
	w := getWorld(t)
	r := RunAdaptiveK(w, 2500)
	if r.Queries == 0 {
		t.Fatal("no queries assessed")
	}
	cdf := r.CDF()
	if len(cdf) != w.Cfg.KMax+1 {
		t.Fatalf("CDF points = %d", len(cdf))
	}
	last := cdf[len(cdf)-1]
	if last.Y < 0.999 {
		t.Errorf("CDF does not reach 1: %v", last.Y)
	}
	// Shape of Fig 7: a sizable fraction needs no fakes; a jump at kmax for
	// the semantically sensitive queries.
	if r.FractionAt(0) < 0.05 {
		t.Errorf("fraction at k=0 = %.3f, want a visible mass", r.FractionAt(0))
	}
	if r.FractionAt(w.Cfg.KMax) < 0.05 {
		t.Errorf("fraction at kmax = %.3f, want the Fig 7 jump", r.FractionAt(w.Cfg.KMax))
	}
	if r.MeanK() >= float64(w.Cfg.KMax) {
		t.Error("adaptive protection saves no traffic")
	}
	if !strings.Contains(r.String(), "mean k") {
		t.Error("render missing mean k")
	}
}

func TestFig5ReIdentificationOrdering(t *testing.T) {
	w := getWorld(t)
	r := RunReIdentification(w, ReIdentificationOptions{K: 7, MaxQueries: 400})
	for _, m := range AllMechanisms {
		if r.Attempts[m] == 0 {
			t.Fatalf("%s: no attack attempts", m)
		}
		if r.Rates[m] < 0 || r.Rates[m] > 1 {
			t.Fatalf("%s: rate %v out of range", m, r.Rates[m])
		}
	}
	// The paper's ordering: unprotected/anonymity-only and
	// known-identity mechanisms are weak; combined mechanisms are strong;
	// CYCLOSA is the strongest.
	weak := []MechanismName{MechTOR, MechTMN, MechGooPIR}
	strong := []MechanismName{MechPEAS, MechXSearch, MechCyclosa}
	for _, wm := range weak {
		for _, sm := range strong {
			if r.Rates[sm] >= r.Rates[wm] {
				t.Errorf("%s (%.3f) should re-identify less than %s (%.3f)",
					sm, r.Rates[sm], wm, r.Rates[wm])
			}
		}
	}
	if r.Rates[MechCyclosa] > r.Rates[MechXSearch] {
		t.Errorf("CYCLOSA (%.3f) should not exceed X-SEARCH (%.3f)",
			r.Rates[MechCyclosa], r.Rates[MechXSearch])
	}
	// TOR's rate should be substantial (paper: 36%).
	if r.Rates[MechTOR] < 0.15 {
		t.Errorf("TOR rate = %.3f, too low for an unprotected baseline", r.Rates[MechTOR])
	}
	// CYCLOSA's rate should be a small fraction of TOR's (paper: 36% -> 4%).
	if r.Rates[MechCyclosa] > r.Rates[MechTOR]/3 {
		t.Errorf("CYCLOSA rate %.3f not substantially below TOR %.3f",
			r.Rates[MechCyclosa], r.Rates[MechTOR])
	}
	if !strings.Contains(r.String(), "Re-identification") {
		t.Error("render broken")
	}
}

func TestFig6AccuracyShape(t *testing.T) {
	w := getWorld(t)
	r, err := RunAccuracy(w, AccuracyOptions{K: 3, MaxQueries: 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	byMech := map[MechanismName]AccuracyRow{}
	for _, row := range r.Rows {
		byMech[row.Mechanism] = row
	}
	// Exact mechanisms: perfect accuracy.
	for _, m := range []MechanismName{MechTOR, MechTMN, MechCyclosa} {
		row := byMech[m]
		if row.Correctness < 0.999 || row.Completeness < 0.999 {
			t.Errorf("%s accuracy = %.3f/%.3f, want 1.0/1.0", m, row.Correctness, row.Completeness)
		}
	}
	// Lossy mechanisms: visibly below perfect.
	for _, m := range []MechanismName{MechGooPIR, MechPEAS, MechXSearch} {
		row := byMech[m]
		if row.Completeness > 0.95 {
			t.Errorf("%s completeness = %.3f, should lose results to OR dilution", m, row.Completeness)
		}
		if row.Completeness < 0.2 {
			t.Errorf("%s completeness = %.3f, implausibly low", m, row.Completeness)
		}
	}
	if !strings.Contains(r.String(), "Correctness") {
		t.Error("render broken")
	}
}

func TestFig8aLatencyOrdering(t *testing.T) {
	w := getWorld(t)
	r, err := RunLatency(w, LatencyOptions{Queries: 60, K: 3, NetworkNodes: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 4 {
		t.Fatalf("series = %d", len(r.Series))
	}
	medians := map[string]time.Duration{}
	for _, s := range r.Series {
		if len(s.Latencies) != r.Queries {
			t.Fatalf("%s has %d samples", s.Label, len(s.Latencies))
		}
		medians[s.Label] = s.Median()
	}
	// Paper's ordering: Direct ≈ X-SEARCH < CYCLOSA << TOR.
	if !(medians["Direct"] < medians["CYCLOSA"]) {
		t.Errorf("Direct (%v) should beat CYCLOSA (%v)", medians["Direct"], medians["CYCLOSA"])
	}
	if !(medians["X-SEARCH"] < medians["CYCLOSA"]) {
		t.Errorf("X-SEARCH (%v) should beat CYCLOSA (%v)", medians["X-SEARCH"], medians["CYCLOSA"])
	}
	if !(medians["CYCLOSA"] < medians["TOR"]/10) {
		t.Errorf("CYCLOSA (%v) should be >10x faster than TOR (%v)", medians["CYCLOSA"], medians["TOR"])
	}
	// Sub-second CYCLOSA median, as the paper reports (0.876 s).
	if medians["CYCLOSA"] > 1500*time.Millisecond {
		t.Errorf("CYCLOSA median = %v, want around the paper's 0.876s", medians["CYCLOSA"])
	}
	if !strings.Contains(r.String(), "median") {
		t.Error("render broken")
	}
}

func TestFig8bLatencyGrowsWithK(t *testing.T) {
	w := getWorld(t)
	r, err := RunLatencyVsK(w, 50, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 5 {
		t.Fatalf("series = %d", len(r.Series))
	}
	prev := time.Duration(0)
	for i, s := range r.Series {
		med := s.Median()
		if i > 0 && med < prev-150*time.Millisecond {
			t.Errorf("median latency dropped sharply from %v to %v at %s", prev, med, s.Label)
		}
		prev = med
	}
	k0 := r.Series[0].Median()
	k7 := r.Series[len(r.Series)-1].Median()
	if k7 <= k0 {
		t.Errorf("k=7 median (%v) should exceed k=0 (%v)", k7, k0)
	}
	// Paper: even k=7 stays under ~1.5s median.
	if k7 > 2*time.Second {
		t.Errorf("k=7 median = %v, far above the paper's 1.226s", k7)
	}
	if !strings.Contains(r.String(), "k=7") {
		t.Error("render broken")
	}
}

func TestFig8dLoadBalancing(t *testing.T) {
	w := getWorld(t)
	r, err := RunLoadBalancing(w, LoadBalancingOptions{
		Horizon:            90 * time.Minute,
		K:                  3,
		Users:              60, // test world has 60 users
		EngineLimitPerHour: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The proxy must exceed the engine limit and get queries rejected.
	induced := r.XSearchHourlyInduced()
	if induced <= r.EngineLimitPerHour {
		t.Errorf("X-SEARCH induced %.0f req/h, should exceed the %.0f limit", induced, r.EngineLimitPerHour)
	}
	rejected := 0
	for _, n := range r.XSearchRejected {
		rejected += n
	}
	if rejected == 0 {
		t.Error("X-SEARCH proxy never rejected despite exceeding the limit")
	}
	// CYCLOSA stays far below the limit per node and loses nothing.
	if r.CyclosaRejected != 0 {
		t.Errorf("CYCLOSA rejected %d queries", r.CyclosaRejected)
	}
	if max := r.CyclosaMaxPerNodeHourly(); max >= r.EngineLimitPerHour/2 {
		t.Errorf("CYCLOSA max per-node rate %.0f too close to the limit", max)
	}
	if !strings.Contains(r.String(), "CYCLOSA per-node rate") {
		t.Error("render broken")
	}
}
