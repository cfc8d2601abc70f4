// Command cyclosa-bench regenerates the tables and figures of the paper's
// evaluation (§VII, §VIII) from the reproduction's experiment drivers, and
// emits the property records (BENCH_*.json) CI keeps PR over PR.
//
// Usage:
//
//	cyclosa-bench -exp all
//	cyclosa-bench -exp fig5 -users 198 -seed 1
//	cyclosa-bench -exp fig8c -duration 2s -concurrency 16
//	cyclosa-bench -exp loadtest -concurrency 32 -duration 2s -workload zipf
//	cyclosa-bench -exp chaos -seed 7 -workload zipf -chaos-intensity 2
//	cyclosa-bench -exp privacy -json BENCH_privacy.json
//
// The experiments are the rows of the table below; -h lists their names,
// which of them -exp all leaves out (the real-time and the heavyweight ones)
// and which keep a record that -json writes. How fast a relay or a protected
// search is is not an experiment here: that is benchmark/run.sh, the one
// ruler every performance claim is stated in.
//
// A recorded experiment's -json file carries the summaries of earlier runs
// forward as history. An experiment whose result has invariants exits
// non-zero when one is violated and names the -seed that replays the run.
//
// The gossip experiment measures the membership control plane: convergence
// of a seeded overlay, re-convergence under churn, and the blacklist
// no-re-entry invariant.
//
// The privacy experiment replays trace-driven query streams through the
// CYCLOSA relay + fake-query path into the SimAttack adversary, sweeping
// the fake-query rate k over {0, 3, 7} and reporting re-identification
// rate, precision and recall per k, plus a planet-scale WAN churn phase
// (five-region latency/loss matrix, heavy-tailed churn) proving the
// overlay those queries ride on stays healthy. -users, -mean-queries and
// -queries bound the profile (defaults 60/120/1500; -wan-nodes scales the
// WAN phase); it fails when the k=7 re-identification rate exceeds its
// seeded bound or the WAN view-quality invariants break.
//
// The accounting experiment has hosted client nodes forward to one hosted
// relay at far more than each client's admitted rate for -duration and
// reports admitted vs throttled; it fails if throttling never fired or the
// offered load never reached 2x the quota.
//
// The backend experiment runs the engine-brownout chaos driver: up to 30%
// of the overlay's backends degrade (errors, hangs, latency spikes) behind
// the internal/backend resilience stack while a concurrent workload
// measures availability and tail latency; it fails if a brownout invariant
// (no blacklisting for engine failures, >= 95% availability, full recovery)
// is violated.
//
// The chaos experiment drives the internal/simnet fault-injection layer:
// a seed-derived crash/restart/partition schedule plus per-delivery drops,
// bit flips, truncations, replays, Byzantine garbage and latency spikes,
// with the protocol invariant checkers armed. Re-running with the same
// -seed replays the identical fault schedule.
//
// The loadtest experiment drives the concurrent workload engine
// (internal/workload) against the full forward path of one relay with a
// null backend: -concurrency client goroutines, a fixed | zipf | trace
// query workload, closed loop by default or open loop at -rate req/s. It
// also measures a single-client serial baseline and reports the speedup.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"cyclosa/internal/eval"
	"cyclosa/internal/simnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cyclosa-bench:", err)
		os.Exit(1)
	}
}

// config is the parsed command line plus the world the selected experiments
// share.
type config struct {
	seed        int64
	users       int
	mean        int
	queries     int
	duration    time.Duration
	concurrency int
	workload    string
	rate        float64
	jsonOut     string
	intensity   float64
	rounds      int
	wanNodes    int
	traceFile   string
	// set names the flags the command line gave, for the experiments whose
	// own defaults differ from the shared flag defaults.
	set   map[string]bool
	world *eval.World
}

// experiment is one row of the table: everything cyclosa-bench knows about
// an experiment except what it computes.
type experiment struct {
	name string
	// needsWorld: run reads c.world (universe + LDA training, seconds).
	needsWorld bool
	// inAll: part of -exp all. The real-time load experiments and the
	// heavyweight privacy sweep run only when named.
	inAll bool
	// recorded: the result is an eval.Record, which -json writes.
	recorded bool
	run      func(c *config) (fmt.Stringer, error)
}

// text lets an experiment that renders straight to a string be a row.
type text string

func (t text) String() string { return string(t) }

var experiments = []experiment{
	{name: "table1", inAll: true, run: func(*config) (fmt.Stringer, error) {
		return text(eval.RenderTable1()), nil
	}},
	{name: "crowd", needsWorld: true, inAll: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunCrowdCampaign(c.world, eval.CrowdOptions{}), nil
	}},
	{name: "table2", needsWorld: true, inAll: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunCategorizerAccuracy(c.world, c.queries*10), nil
	}},
	{name: "fig7", needsWorld: true, inAll: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunAdaptiveK(c.world, c.queries*10), nil
	}},
	{name: "fig5", needsWorld: true, inAll: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunReIdentification(c.world, eval.ReIdentificationOptions{K: 7, MaxQueries: c.queries}), nil
	}},
	{name: "fig6", needsWorld: true, inAll: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunAccuracy(c.world, eval.AccuracyOptions{K: 3, MaxQueries: min(c.queries, 300)})
	}},
	{name: "fig8a", needsWorld: true, inAll: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunLatency(c.world, eval.LatencyOptions{Queries: min(c.queries, 200), K: 3})
	}},
	{name: "fig8b", needsWorld: true, inAll: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunLatencyVsK(c.world, min(c.queries, 200), 32)
	}},
	{name: "fig8c", needsWorld: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunThroughput(c.world, eval.ThroughputOptions{Duration: c.duration, Workers: c.concurrency})
	}},
	{name: "loadtest", run: func(c *config) (fmt.Stringer, error) {
		return eval.RunLoadTest(eval.LoadTestOptions{
			Seed:          c.seed,
			Concurrency:   c.concurrency,
			Duration:      c.duration,
			Workload:      c.workload,
			Rate:          c.rate,
			CompareSerial: true,
			TraceFile:     c.traceFile,
		})
	}},
	{name: "gossip", inAll: true, recorded: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunGossipBench(eval.GossipBenchOptions{Seed: c.seed})
	}},
	{name: "fig8d", needsWorld: true, inAll: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunLoadBalancing(c.world, eval.LoadBalancingOptions{})
	}},
	{name: "ablation", needsWorld: true, inAll: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunFakeSourceAblation(c.world, 7, c.queries), nil
	}},
	{name: "sweep", needsWorld: true, inAll: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunSensitivitySweep(c.world, nil, c.queries)
	}},
	{name: "learning", needsWorld: true, inAll: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunLearningAdversary(c.world, 7, c.queries/3, 3), nil
	}},
	{name: "churn", needsWorld: true, inAll: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunChurn(c.world, eval.ChurnOptions{})
	}},
	{name: "backend", recorded: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunBackendBench(eval.BackendBenchOptions{Seed: c.seed})
	}},
	{name: "accounting", recorded: true, run: func(c *config) (fmt.Stringer, error) {
		return eval.RunAccountingBench(eval.AccountingBenchOptions{Seed: c.seed, Duration: c.duration})
	}},
	// The privacy experiment defaults to its own bounded 60-user/1500-query
	// profile rather than the shared flag defaults; an explicit flag wins.
	{name: "privacy", recorded: true, run: func(c *config) (fmt.Stringer, error) {
		o := eval.PrivacyBenchOptions{Seed: c.seed, WANNodes: c.wanNodes}
		if c.set["users"] {
			o.Users = c.users
		}
		if c.set["mean-queries"] {
			o.MeanQueries = c.mean
		}
		if c.set["queries"] {
			o.Queries = c.queries
		}
		return eval.RunPrivacyBench(o)
	}},
	// The chaos experiment defaults to the zipf workload (its point is load
	// shape under faults); an explicit -workload wins.
	{name: "chaos", inAll: true, run: func(c *config) (fmt.Stringer, error) {
		if c.intensity < 0 {
			return nil, fmt.Errorf("chaos intensity must be >= 0, got %g", c.intensity)
		}
		const nodes, k = 24, 2
		faults := simnet.DefaultChaosFaults().Scaled(c.intensity)
		o := simnet.ChaosOptions{
			Seed:     c.seed,
			Nodes:    nodes,
			K:        k,
			Clients:  c.concurrency,
			Rounds:   c.rounds,
			Workload: "zipf",
			Faults:   &faults,
		}
		if c.set["workload"] {
			o.Workload = c.workload
		}
		report, err := simnet.Chaos(o)
		if err != nil {
			return nil, err
		}
		return chaosRun{report, fmt.Sprintf("Chaos experiment: seed %d, %d nodes, k=%d, %s workload, intensity %.2g\n",
			c.seed, nodes, k, o.Workload, c.intensity)}, nil
	}},
}

// chaosRun is a chaos report under the line naming what ran.
type chaosRun struct {
	*simnet.ChaosReport
	header string
}

func (r chaosRun) String() string {
	return r.header + r.ChaosReport.String() +
		"(replay any failure with the same -seed: schedule, fault streams and workload are all derived from it)\n"
}

// Violations lists the protocol invariants the run broke.
func (r chaosRun) Violations() []string { return r.Check() }

// names joins the names of the rows keep selects, in table order.
func names(keep func(experiment) bool) string {
	var out []string
	for _, e := range experiments {
		if keep(e) {
			out = append(out, e.name)
		}
	}
	return strings.Join(out, "|")
}

func run(args []string) error {
	c := &config{set: make(map[string]bool)}
	all := names(func(experiment) bool { return true })
	notInAll := names(func(e experiment) bool { return !e.inAll })
	fs := flag.NewFlagSet("cyclosa-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: "+all+"|all (all leaves out "+notInAll+")")
	fs.Int64Var(&c.seed, "seed", 1, "random seed")
	fs.IntVar(&c.users, "users", 198, "workload users (paper: 198)")
	fs.IntVar(&c.mean, "mean-queries", 120, "mean queries per user")
	fs.IntVar(&c.queries, "queries", 1000, "max queries per experiment (0 = all)")
	fs.DurationVar(&c.duration, "duration", 500*time.Millisecond, "per-rate duration for fig8c / measured window for loadtest and accounting")
	fs.IntVar(&c.concurrency, "concurrency", 8, "concurrent client goroutines for fig8c, loadtest and chaos")
	fs.StringVar(&c.workload, "workload", "fixed", "loadtest and chaos query workload: fixed|zipf|trace (chaos defaults to zipf)")
	fs.Float64Var(&c.rate, "rate", 0, "loadtest open-loop offered rate in req/s (0 = closed loop)")
	fs.StringVar(&c.jsonOut, "json", "", "also write the record of "+
		names(func(e experiment) bool { return e.recorded })+" to this path (e.g. BENCH_gossip.json), history carried forward")
	fs.Float64Var(&c.intensity, "chaos-intensity", 1, "chaos experiment: scale on the default fault probabilities")
	fs.IntVar(&c.rounds, "chaos-rounds", 8, "chaos experiment: schedule/workload rounds")
	fs.IntVar(&c.wanNodes, "wan-nodes", 0, "privacy experiment: WAN churn phase size (0 = default 2000, negative disables)")
	fs.StringVar(&c.traceFile, "trace", "", "loadtest: replay this query-log file with -workload trace (one query per line, # comments)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) { c.set[f.Name] = true })

	// Resolve the name against the table before any work: a typo must not
	// cost a world build.
	want := strings.ToLower(*exp)
	var selected []experiment
	needWorld := false
	for _, e := range experiments {
		if want == e.name || want == "all" && e.inAll {
			selected = append(selected, e)
			needWorld = needWorld || e.needsWorld
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (valid: %s|all)", *exp, all)
	}
	if want == "all" {
		fmt.Printf("skipped in -exp all (real-time or heavyweight; run each with -exp <name>): %s\n", notInAll)
	}

	if needWorld {
		fmt.Fprintf(os.Stderr, "building world (seed=%d users=%d)...\n", c.seed, c.users)
		var err error
		c.world, err = eval.NewWorld(eval.WorldConfig{
			Seed:               c.seed,
			NumUsers:           c.users,
			MeanQueriesPerUser: c.mean,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "world: %s train, %s test\n", c.world.Train, c.world.Test)
	}

	for _, e := range selected {
		fmt.Fprintf(os.Stderr, "running %s...\n", e.name)
		r, err := e.run(c)
		if err == nil {
			err = c.emit(e, r)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}

// emit is what happens to every result: it is printed, written through the
// one record writer when the row is recorded and -json names a file, and
// turned into the non-zero exit when it has violations — after the write, so
// a failing run still leaves its record.
func (c *config) emit(e experiment, r fmt.Stringer) error {
	fmt.Println(r)
	if e.recorded && c.jsonOut != "" {
		if err := eval.WriteRecord(c.jsonOut, r.(eval.Record)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", c.jsonOut)
	}
	if v, ok := r.(interface{ Violations() []string }); ok {
		if bad := v.Violations(); len(bad) > 0 {
			return fmt.Errorf("invariants violated (seed %d replays the failure): %s", c.seed, strings.Join(bad, "; "))
		}
	}
	return nil
}
