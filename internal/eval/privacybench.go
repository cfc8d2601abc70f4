package eval

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"cyclosa/internal/adversary"
	"cyclosa/internal/simnet"
	"cyclosa/internal/workload"
)

// PrivacyBenchOptions configures the adversarial privacy benchmark behind
// cyclosa-bench's -exp privacy: trace-replay query streams driven through
// the relay + fake-query path into SimAttack, sweeping the fake-query rate
// k, with a planet-scale WAN churn phase proving the overlay the queries
// would ride on stays healthy. Everything is scalable by flag and
// deterministic in Seed.
type PrivacyBenchOptions struct {
	// Seed derives the world, the fake draws and the WAN phase.
	Seed int64
	// Users is the workload cohort size (default 60 — a bounded profile;
	// the paper's 198 via -users 198).
	Users int
	// MeanQueries is the mean queries per user (default 120).
	MeanQueries int
	// Queries is the number of real test queries replayed per k (default
	// 1500; capped by the test split size, 0 keeps the default).
	Queries int
	// Clients is the number of concurrent trace-replay streams (default 8).
	Clients int
	// Ks is the fake-query-rate sweep (default {0, 3, 7}).
	Ks []int
	// MaxRateAtKMax is the re-identification-rate bound at the highest k —
	// the regression gate. The paper reports 4% for CYCLOSA at k=7; the
	// seeded 60-user profile measures ~6%, so the default 0.08 bound gives
	// the gate headroom against sampling noise while still catching a
	// cover-traffic regression. Violating it fails the bench.
	MaxRateAtKMax float64
	// MinRateAtKZero is the sanity floor at k=0: an attack below it never
	// identified anyone, so the k sweep proves nothing (default 0.02).
	MinRateAtKZero float64
	// WANNodes sizes the WAN churn phase (default 2000; negative disables
	// the phase).
	WANNodes int
	// WANRounds is the WAN phase length (default 10).
	WANRounds int
}

func (o *PrivacyBenchOptions) applyDefaults() {
	if o.Users == 0 {
		o.Users = 60
	}
	if o.MeanQueries == 0 {
		o.MeanQueries = 120
	}
	if o.Queries == 0 {
		o.Queries = 1500
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if len(o.Ks) == 0 {
		o.Ks = []int{0, 3, 7}
	}
	if o.MaxRateAtKMax == 0 {
		o.MaxRateAtKMax = 0.08
	}
	if o.MinRateAtKZero == 0 {
		o.MinRateAtKZero = 0.02
	}
	if o.WANNodes == 0 {
		o.WANNodes = 2000
	}
	if o.WANRounds == 0 {
		o.WANRounds = 10
	}
}

// PrivacyKResult is the attack outcome at one fake-query rate.
type PrivacyKResult struct {
	// K is the fake-query rate (fakes per real query).
	K int `json:"k"`
	// Reals is the number of real queries replayed.
	Reals int `json:"real_queries"`
	// Attempts counts everything the adversary scored: reals plus fakes.
	Attempts int `json:"attempts"`
	// Claims is how often the adversary asserted an identification.
	Claims int `json:"claims"`
	// Correct is how many claims linked a real query to its true sender.
	Correct int `json:"correct"`
	// Rate is Correct/Attempts — the paper's re-identification rate over
	// all queries reaching the engine (§VII-E).
	Rate float64 `json:"reidentification_rate"`
	// Precision is Correct/Claims: how trustworthy an assertion is.
	Precision float64 `json:"precision"`
	// Recall is Correct/Reals: the fraction of real queries exposed.
	Recall float64 `json:"recall"`
}

// PrivacyWANResult summarizes the WAN churn phase.
type PrivacyWANResult struct {
	Nodes       int      `json:"nodes"`
	Rounds      int      `json:"rounds"`
	ConvergedAt int      `json:"converged_at"`
	HealRounds  int      `json:"heal_rounds"`
	MeanInDeg   float64  `json:"mean_in_degree"`
	RTTp50Ms    float64  `json:"rtt_p50_ms"`
	RTTp95Ms    float64  `json:"rtt_p95_ms"`
	Violations  []string `json:"violations,omitempty"`
}

// PrivacyBenchResult is one measurement of the privacy plane, emitted as
// BENCH_privacy.json with history carried forward.
type PrivacyBenchResult struct {
	// Benchmark names the measured property.
	Benchmark string `json:"benchmark"`
	// Users, QueriesPerK and Clients echo the profile.
	Users       int `json:"users"`
	QueriesPerK int `json:"queries_per_k"`
	Clients     int `json:"clients"`
	// Sweep is the attack outcome per fake-query rate, ascending k.
	Sweep []PrivacyKResult `json:"sweep"`
	// MaxRateAtKMax and MinRateAtKZero are the gate bounds the run was
	// checked against.
	MaxRateAtKMax  float64 `json:"max_rate_at_k_max"`
	MinRateAtKZero float64 `json:"min_rate_at_k_zero"`
	// WAN is the overlay-health phase (omitted when disabled).
	WAN *PrivacyWANResult `json:"wan,omitempty"`
	Stamp
}

// PrivacyBenchHistoryEntry is one prior BENCH_privacy measurement: the
// trajectory CI tracks is the re-identification rate at the sweep's
// endpoints.
type PrivacyBenchHistoryEntry struct {
	GeneratedAt    string  `json:"generated_at"`
	RateAtKZero    float64 `json:"rate_at_k_zero"`
	RateAtKMax     float64 `json:"rate_at_k_max"`
	RecallAtKMax   float64 `json:"recall_at_k_max"`
	WANConvergedAt int     `json:"wan_converged_at"`
}

// kMin and kMax are the sweep's endpoints.
func (r *PrivacyBenchResult) kMin() *PrivacyKResult {
	if len(r.Sweep) == 0 {
		return nil
	}
	return &r.Sweep[0]
}

func (r *PrivacyBenchResult) kMax() *PrivacyKResult {
	if len(r.Sweep) == 0 {
		return nil
	}
	return &r.Sweep[len(r.Sweep)-1]
}

// Violations returns one line per violated privacy invariant (empty =
// clean): the regression gate behind the bench's non-zero exit.
func (r *PrivacyBenchResult) Violations() []string {
	var bad []string
	lo, hi := r.kMin(), r.kMax()
	if lo == nil || hi == nil {
		return []string{"empty sweep"}
	}
	if hi.Rate > r.MaxRateAtKMax {
		bad = append(bad, fmt.Sprintf(
			"re-identification rate %.4f at k=%d exceeds the %.4f bound", hi.Rate, hi.K, r.MaxRateAtKMax))
	}
	if lo.K == 0 && lo.Rate < r.MinRateAtKZero {
		bad = append(bad, fmt.Sprintf(
			"baseline rate %.4f at k=0 below the %.4f sanity floor — the attack identified almost nobody, so the sweep is vacuous", lo.Rate, r.MinRateAtKZero))
	}
	if hi.K > lo.K && hi.Rate > lo.Rate {
		bad = append(bad, fmt.Sprintf(
			"cover traffic made things worse: rate %.4f at k=%d above %.4f at k=%d", hi.Rate, hi.K, lo.Rate, lo.K))
	}
	if r.WAN != nil && len(r.WAN.Violations) > 0 {
		for _, v := range r.WAN.Violations {
			bad = append(bad, "wan: "+v)
		}
	}
	return bad
}

// RunPrivacyBench builds a bounded world, replays trace-driven query
// streams through the CYCLOSA relay + fake-query path into SimAttack at
// each fake-query rate, and runs the planet-scale WAN churn phase. The
// replay fans out over Clients goroutines (SimAttack identification is
// read-only), with per-client outcomes merged deterministically.
func RunPrivacyBench(opts PrivacyBenchOptions) (*PrivacyBenchResult, error) {
	opts.applyDefaults()
	if opts.Queries < 0 {
		return nil, fmt.Errorf("privacy: negative query count %d", opts.Queries)
	}
	for i := 1; i < len(opts.Ks); i++ {
		if opts.Ks[i] <= opts.Ks[i-1] {
			return nil, fmt.Errorf("privacy: k sweep %v must be strictly ascending", opts.Ks)
		}
	}
	if opts.Ks[0] < 0 {
		return nil, fmt.Errorf("privacy: negative fake-query rate %d", opts.Ks[0])
	}

	w, err := NewWorld(WorldConfig{
		Seed:               opts.Seed,
		NumUsers:           opts.Users,
		MeanQueriesPerUser: opts.MeanQueries,
	})
	if err != nil {
		return nil, fmt.Errorf("privacy: build world: %w", err)
	}
	attack := w.NewAdversary()
	pool := trainPool(w)
	gen := workload.Replay(w.Test)

	reals := opts.Queries
	if n := w.Test.Len(); reals > n {
		reals = n
	}

	res := &PrivacyBenchResult{
		Benchmark:      "SimAttack re-identification vs fake-query rate (trace replay)",
		Users:          len(attack.Users()),
		QueriesPerK:    reals,
		Clients:        opts.Clients,
		MaxRateAtKMax:  opts.MaxRateAtKMax,
		MinRateAtKZero: opts.MinRateAtKZero,
	}

	for _, k := range opts.Ks {
		res.Sweep = append(res.Sweep, runPrivacySweep(w, attack, pool, gen, k, reals, opts))
	}

	if opts.WANNodes > 0 {
		rounds := opts.WANRounds
		rep, err := simnet.WANChurn(simnet.WANChurnOptions{
			Seed:        opts.Seed,
			Nodes:       opts.WANNodes,
			Rounds:      rounds,
			PartitionAt: max(rounds/2-1, 1),
			HealAt:      max(rounds/2+1, 2),
			Churn: simnet.WANChurnConfig{
				FlashCrowds: []simnet.FlashCrowd{{Round: max(rounds/4, 1), Size: opts.WANNodes / 30}},
			},
		})
		if err != nil {
			return nil, fmt.Errorf("privacy: wan phase: %w", err)
		}
		res.WAN = &PrivacyWANResult{
			Nodes:       rep.Nodes,
			Rounds:      rep.Rounds,
			ConvergedAt: rep.ConvergedAt,
			HealRounds:  rep.HealRounds,
			MeanInDeg:   rep.MeanInDegree,
			RTTp50Ms:    float64(rep.RTTp50) / 1e6,
			RTTp95Ms:    float64(rep.RTTp95) / 1e6,
			Violations:  rep.Check(),
		}
	}

	return res, nil
}

// runPrivacySweep replays the test trace at one fake-query rate. Client c
// of C replays trace entries c, c+C, ... (the traceGen interleave), so the
// union of the client streams over one pass is exactly the trace and the
// ground-truth sender of each replayed query is known by index.
func runPrivacySweep(w *World, attack *adversary.SimAttack, pool []string, gen workload.Generator, k, reals int, opts PrivacyBenchOptions) PrivacyKResult {
	clients := opts.Clients
	if clients > reals && reals > 0 {
		clients = reals
	}
	type outcome struct{ reals, attempts, claims, correct int }
	outcomes := make([]outcome, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stream := gen.Stream(c, clients)
			// Per-client fake draws: deterministic, independent of
			// scheduling, salted per (seed, k, client).
			rng := rand.New(rand.NewSource(opts.Seed ^ 0x70726976 + int64(k)*1e6 + int64(c)*7919))
			n := reals / clients
			if c < reals%clients {
				n++
			}
			var o outcome
			testLen := w.Test.Len()
			for j := 0; j < n; j++ {
				q := stream.Next()
				truth := w.Test.Queries[(c+j*clients)%testLen].User
				o.reals++
				o.attempts++
				if user, ok := attack.Identify(q); ok {
					o.claims++
					if user == truth {
						o.correct++
					}
				}
				// k fakes replayed from the relay's accumulated table on the
				// sender's behalf: an identification pointing anywhere is a
				// claim, but only real-query links count as correct.
				for f := 0; f < k; f++ {
					o.attempts++
					if _, ok := attack.Identify(pool[rng.Intn(len(pool))]); ok {
						o.claims++
					}
				}
			}
			outcomes[c] = o
		}(c)
	}
	wg.Wait()

	var kr PrivacyKResult
	kr.K = k
	for _, o := range outcomes {
		kr.Reals += o.reals
		kr.Attempts += o.attempts
		kr.Claims += o.claims
		kr.Correct += o.correct
	}
	if kr.Attempts > 0 {
		kr.Rate = float64(kr.Correct) / float64(kr.Attempts)
	}
	if kr.Claims > 0 {
		kr.Precision = float64(kr.Correct) / float64(kr.Claims)
	}
	if kr.Reals > 0 {
		kr.Recall = float64(kr.Correct) / float64(kr.Reals)
	}
	return kr
}

// Summary is the history entry this run leaves behind.
func (r *PrivacyBenchResult) Summary() any {
	entry := PrivacyBenchHistoryEntry{GeneratedAt: r.GeneratedAt}
	if lo := r.kMin(); lo != nil && lo.K == 0 {
		entry.RateAtKZero = lo.Rate
	}
	if hi := r.kMax(); hi != nil {
		entry.RateAtKMax = hi.Rate
		entry.RecallAtKMax = hi.Recall
	}
	if r.WAN != nil {
		entry.WANConvergedAt = r.WAN.ConvergedAt
	}
	return entry
}

// String renders the result for the terminal.
func (r *PrivacyBenchResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Privacy (%s):\n  %d profiled users, %d real queries per k, %d replay clients\n",
		r.Benchmark, r.Users, r.QueriesPerK, r.Clients)
	for _, kr := range r.Sweep {
		fmt.Fprintf(&b, "  k=%d: rate %.2f%% precision %.2f%% recall %.2f%% (%d correct / %d claims / %d attempts)\n",
			kr.K, 100*kr.Rate, 100*kr.Precision, 100*kr.Recall, kr.Correct, kr.Claims, kr.Attempts)
	}
	if r.WAN != nil {
		fmt.Fprintf(&b, "  wan: %d nodes, converged round %d, heal %d rounds, rtt p50 %.0fms p95 %.0fms",
			r.WAN.Nodes, r.WAN.ConvergedAt, r.WAN.HealRounds, r.WAN.RTTp50Ms, r.WAN.RTTp95Ms)
		if len(r.WAN.Violations) > 0 {
			fmt.Fprintf(&b, " [VIOLATIONS: %s]", strings.Join(r.WAN.Violations, "; "))
		}
		b.WriteString("\n")
	}
	if bad := r.Violations(); len(bad) > 0 {
		fmt.Fprintf(&b, "  PRIVACY INVARIANT VIOLATIONS:\n    %s\n", strings.Join(bad, "\n    "))
	} else {
		fmt.Fprintf(&b, "  privacy invariants hold (k=%d rate <= %.2f%%)\n", r.kMax().K, 100*r.MaxRateAtKMax)
	}
	return b.String()
}
