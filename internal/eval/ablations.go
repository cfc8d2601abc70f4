package eval

import (
	"fmt"
	"math/rand"
	"strings"

	"cyclosa/internal/adversary"
	"cyclosa/internal/baselines/goopir"
	"cyclosa/internal/baselines/tmn"
	"cyclosa/internal/queries"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/stats"
	"cyclosa/internal/textproc"
)

// FakeSourceResult is the fake-query-source ablation: the effective
// re-identification rate of CYCLOSA-style individual-query traffic when the
// fakes come from different generators. The paper argues (§IV) that
// replayed past queries "look more real" than RSS- or dictionary-generated
// fakes; this ablation quantifies the claim under SimAttack.
type FakeSourceResult struct {
	K       int
	Queries int
	// Rates maps the fake source to the effective re-identification rate.
	Rates map[string]float64
	// Misattributions maps the fake source to the rate at which the
	// adversary links a fake to some (wrong) user — the confusion the
	// source generates.
	Misattributions map[string]float64
}

// RunFakeSourceAblation measures re-identification for three fake sources:
// past-queries (the paper's design), rss (TrackMeNot's generator) and
// dictionary (GooPIR's generator).
func RunFakeSourceAblation(w *World, k, maxQueries int) *FakeSourceResult {
	if k == 0 {
		k = 7
	}
	if maxQueries == 0 {
		maxQueries = 400
	}
	sample := w.TestSample(maxQueries)
	attack := w.NewAdversary()
	rng := rand.New(rand.NewSource(w.Cfg.Seed + 950))

	pool := trainPool(w)
	feed := tmn.NewRSSFeed(w.Uni, w.Cfg.Seed+951)
	dict := goopir.NewDictionary(w.Uni)

	sources := map[string]func(real string) string{
		"past-queries": func(string) string { return pool[rng.Intn(len(pool))] },
		"rss":          func(string) string { return feed.Headline() },
		"dictionary": func(real string) string {
			return dict.FakeQuery(rng, len(textproc.Tokenize(real)))
		},
	}

	res := &FakeSourceResult{
		K:               k,
		Queries:         len(sample),
		Rates:           make(map[string]float64, len(sources)),
		Misattributions: make(map[string]float64, len(sources)),
	}
	for name, next := range sources {
		attempts, successes, misattr := 0, 0, 0
		for _, q := range sample {
			attempts++
			if user, ok := attack.Identify(q.Text); ok && user == q.User {
				successes++
			}
			for i := 0; i < k; i++ {
				fake := next(q.Text)
				attempts++
				user, ok := attack.Identify(fake)
				switch {
				case ok && user == q.User:
					successes++
				case ok:
					misattr++
				}
			}
		}
		res.Rates[name] = float64(successes) / float64(attempts)
		res.Misattributions[name] = float64(misattr) / float64(attempts)
	}
	return res
}

// String renders the ablation.
func (r *FakeSourceResult) String() string {
	var b strings.Builder
	tbl := &stats.Table{
		Title:  fmt.Sprintf("Ablation: fake-query source vs re-identification (k=%d, %d queries)", r.K, r.Queries),
		Header: []string{"Fake source", "Re-id rate", "Misattribution rate"},
	}
	for _, name := range []string{"past-queries", "rss", "dictionary"} {
		tbl.AddRow(name,
			fmt.Sprintf("%.2f%%", 100*r.Rates[name]),
			fmt.Sprintf("%.2f%%", 100*r.Misattributions[name]))
	}
	b.WriteString(tbl.String())
	b.WriteString("(replayed past queries maximize adversary confusion, §IV)\n")
	return b.String()
}

// SensitivitySweepPoint is one workload sensitivity level of the sweep.
type SensitivitySweepPoint struct {
	// SensitiveWeight is the generator's sensitive-topic profile weight.
	SensitiveWeight float64
	// SensitiveFraction is the resulting ground-truth sensitive share.
	SensitiveFraction float64
	// MeanK is the mean adaptive protection level.
	MeanK float64
	// MaxKFraction is the share of queries at kmax.
	MaxKFraction float64
	// ReIdentification is CYCLOSA's effective re-identification rate at the
	// adaptive protection level.
	ReIdentification float64
}

// SensitivitySweepResult is the paper's stated future work (§IX):
// "investigate other datasets and workloads with different query
// sensitivity levels". The sweep regenerates the workload at increasing
// sensitive-topic weights and reports how the adaptive protection and the
// residual re-identification respond.
type SensitivitySweepResult struct {
	KMax   int
	Points []SensitivitySweepPoint
}

// RunSensitivitySweep executes the sweep over the given profile weights
// (defaults to 0.1, 0.33, 1.0, 3.0 — from mostly-benign to
// sensitivity-dominated workloads).
func RunSensitivitySweep(w *World, weights []float64, maxQueries int) (*SensitivitySweepResult, error) {
	if len(weights) == 0 {
		weights = []float64{0.1, 0.33, 1.0, 3.0}
	}
	if maxQueries == 0 {
		maxQueries = 800
	}
	res := &SensitivitySweepResult{KMax: w.Cfg.KMax}
	for i, weight := range weights {
		cfg := w.Cfg
		cfg.Seed = w.Cfg.Seed + int64(1000*(i+1))
		sw, err := NewWorld(cfg)
		if err != nil {
			return nil, fmt.Errorf("sweep world %v: %w", weight, err)
		}
		// Regenerate the workload at this sensitivity level over the sweep
		// world's universe (detectors stay fixed: same topics, same models).
		log := queries.Generate(queries.GeneratorConfig{
			Seed:                  cfg.Seed,
			Universe:              sw.Uni,
			NumUsers:              cfg.NumUsers,
			MeanQueriesPerUser:    cfg.MeanQueriesPerUser,
			SensitiveTopicChoices: cfg.SensitiveTopics,
			SensitiveQueryWeight:  weight,
		})
		log = log.FilterUsers(log.UsersWithSensitiveQuery())
		sw.Log = log
		sw.Train, sw.Test = log.Split(2.0 / 3.0)

		ak := RunAdaptiveK(sw, maxQueries)
		point := SensitivitySweepPoint{
			SensitiveWeight:   weight,
			SensitiveFraction: log.SensitiveFraction(),
			MeanK:             ak.MeanK(),
			MaxKFraction:      ak.FractionAt(sw.Cfg.KMax),
		}

		// Residual re-identification with adaptive k: real query plus its
		// adaptive number of pool fakes, per query.
		attack := adversary.New(sw.Train, adversary.Config{})
		pool := trainPool(sw)
		rng := rand.New(rand.NewSource(cfg.Seed + 9))
		analyzers := make(map[string]*sensitivity.Analyzer)
		attempts, successes := 0, 0
		for _, q := range sw.TestSample(maxQueries) {
			analyzer, ok := analyzers[q.User]
			if !ok {
				analyzer = sw.NewAnalyzerForUser(q.User, DetectorCombined)
				analyzers[q.User] = analyzer
			}
			assessed := analyzer.Assess(q.Text)
			analyzer.RecordQuery(assessed)
			kq := assessed.K
			attempts++
			if user, ok := attack.Identify(q.Text); ok && user == q.User {
				successes++
			}
			for j := 0; j < kq; j++ {
				attempts++
				if user, ok := attack.Identify(pool[rng.Intn(len(pool))]); ok && user == q.User {
					successes++
				}
			}
		}
		point.ReIdentification = float64(successes) / float64(max(1, attempts))
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// String renders the sweep.
func (r *SensitivitySweepResult) String() string {
	var b strings.Builder
	tbl := &stats.Table{
		Title:  fmt.Sprintf("Future-work sweep: workload sensitivity vs adaptive protection (kmax=%d)", r.KMax),
		Header: []string{"Weight", "%Sensitive", "Mean k", "%at kmax", "Re-id rate"},
	}
	for _, p := range r.Points {
		tbl.AddRow(
			fmt.Sprintf("%.2f", p.SensitiveWeight),
			fmt.Sprintf("%.1f%%", 100*p.SensitiveFraction),
			fmt.Sprintf("%.2f", p.MeanK),
			fmt.Sprintf("%.1f%%", 100*p.MaxKFraction),
			fmt.Sprintf("%.2f%%", 100*p.ReIdentification),
		)
	}
	b.WriteString(tbl.String())
	b.WriteString("(adaptive k tracks workload sensitivity; re-identification stays low throughout)\n")
	return b.String()
}
