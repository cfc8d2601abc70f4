// Command cyclosa-bench regenerates the tables and figures of the paper's
// evaluation (§VII, §VIII) from the reproduction's experiment drivers.
//
// Usage:
//
//	cyclosa-bench -exp all
//	cyclosa-bench -exp fig5 -users 198 -seed 1
//	cyclosa-bench -exp fig8c -duration 2s -concurrency 16
//	cyclosa-bench -exp loadtest -concurrency 32 -duration 2s -workload zipf
//	cyclosa-bench -exp relay -json BENCH_relay.json
//	cyclosa-bench -exp net -json BENCH_net.json
//	cyclosa-bench -exp gossip -json BENCH_gossip.json
//	cyclosa-bench -exp chaos -seed 7 -workload zipf -chaos-intensity 2
//	cyclosa-bench -exp backend -json BENCH_backend.json
//	cyclosa-bench -exp accounting -json BENCH_accounting.json
//	cyclosa-bench -exp privacy -json BENCH_privacy.json
//
// Experiments: table1, crowd, table2, fig5, fig6, fig7, fig8a, fig8b,
// fig8c, fig8d, loadtest, relay, net, gossip, chaos, backend, accounting,
// privacy, all (everything except the real-time fig8c, loadtest, relay,
// net, backend, accounting and the heavyweight privacy sweep unless
// explicitly requested). The gossip experiment measures the membership
// control plane: convergence of a seeded overlay, re-convergence under
// churn, and the blacklist no-re-entry invariant.
//
// The privacy experiment replays trace-driven query streams through the
// CYCLOSA relay + fake-query path into the SimAttack adversary, sweeping
// the fake-query rate k over {0, 3, 7} and reporting re-identification
// rate, precision and recall per k, plus a planet-scale WAN churn phase
// (five-region latency/loss matrix, heavy-tailed churn) proving the
// overlay those queries ride on stays healthy. -users, -mean-queries and
// -queries bound the profile (defaults 60/120/1500; -wan-nodes scales the
// WAN phase); the process exits non-zero when the k=7 re-identification
// rate exceeds its seeded bound or the WAN view-quality invariants break.
// -json emits BENCH_privacy.json with history carried forward.
//
// The accounting experiment has hosted client nodes forward to one hosted
// relay at twice each client's admitted rate and reports admitted vs throttled, then
// re-measures the forward hot path to show the per-client token buckets
// and the net-commit stats seam keep it allocation-flat; the process exits
// non-zero if throttling never fired, the offered load never reached 2x
// the quota, or the hot path exceeded its alloc budget. -json emits
// BENCH_accounting.json with history carried forward.
//
// The backend experiment runs the engine-brownout chaos driver: up to 30%
// of the overlay's backends degrade (errors, hangs, latency spikes) behind
// the internal/backend resilience stack while a concurrent workload
// measures availability and tail latency; the process exits non-zero if a
// brownout invariant (no blacklisting for engine failures, >= 95%
// availability, full recovery) is violated. -json emits BENCH_backend.json.
//
// The chaos experiment drives the internal/simnet fault-injection layer:
// a seed-derived crash/restart/partition schedule plus per-delivery drops,
// bit flips, truncations, replays, Byzantine garbage and latency spikes,
// with the protocol invariant checkers armed; the process exits non-zero
// if any invariant is violated. Re-running with the same -seed replays the
// identical fault schedule.
//
// The relay experiment measures the single-relay forward hot path (the
// binary wire codec + pooled-buffer round trip) in a closed loop and can
// emit the measurement as JSON (-json) for CI perf tracking.
//
// The net experiment measures the same forward round trip side by side in
// process (the direct conduit) and over loopback TCP through the
// internal/nettrans frame protocol — serially, and with -concurrency
// clients multiplexed on one group-committed connection ("tcp+coalesce") —
// with p50/p95 latency, separately reported cold start and warmup, and the
// frames-per-flush contention proxy. With -json it emits BENCH_net.json,
// carrying prior summaries forward as history so the throughput trajectory
// is visible across PRs.
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
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "cyclosa-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cyclosa-bench", flag.ContinueOnError)
	var (
		exp         = fs.String("exp", "all", "experiment: table1|crowd|table2|fig5|fig6|fig7|fig8a|fig8b|fig8c|fig8d|ablation|sweep|learning|churn|chaos|backend|accounting|privacy|loadtest|relay|net|gossip|all")
		seed        = fs.Int64("seed", 1, "random seed")
		users       = fs.Int("users", 198, "workload users (paper: 198)")
		mean        = fs.Int("mean-queries", 120, "mean queries per user")
		queries     = fs.Int("queries", 1000, "max queries per experiment (0 = all)")
		duration    = fs.Duration("duration", 500*time.Millisecond, "per-rate duration for fig8c / measured window for loadtest")
		concurrency = fs.Int("concurrency", 8, "concurrent client goroutines for fig8c and loadtest")
		workloadGen = fs.String("workload", "fixed", "loadtest query workload: fixed|zipf|trace")
		rate        = fs.Float64("rate", 0, "loadtest open-loop offered rate in req/s (0 = closed loop)")
		iterations  = fs.Int("iterations", 0, "relay/net experiment iteration count (0 = default)")
		jsonOut     = fs.String("json", "", "relay/net experiment: also write the result as JSON to this path (e.g. BENCH_relay.json, BENCH_net.json)")
		intensity   = fs.Float64("chaos-intensity", 1, "chaos experiment: scale on the default fault probabilities")
		rounds      = fs.Int("chaos-rounds", 8, "chaos experiment: schedule/workload rounds")
		wanNodes    = fs.Int("wan-nodes", 0, "privacy experiment: WAN churn phase size (0 = default 2000, negative disables)")
		traceFile   = fs.String("trace", "", "loadtest: replay this query-log file with -workload trace (one query per line, # comments)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The chaos experiment defaults to the zipf workload (its point is load
	// shape under faults), and the privacy experiment defaults to a bounded
	// 60-user/1500-query profile rather than the shared flag defaults; an
	// explicit flag still wins for both.
	chaosWorkload := "zipf"
	privacyUsers, privacyMean, privacyQueries := 0, 0, 0
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workload":
			chaosWorkload = *workloadGen
		case "users":
			privacyUsers = *users
		case "mean-queries":
			privacyMean = *mean
		case "queries":
			privacyQueries = *queries
		}
	})

	want := strings.ToLower(*exp)
	needWorld := want != "table1" && want != "loadtest" && want != "relay" && want != "chaos" && want != "net" && want != "backend" && want != "accounting" && want != "privacy"

	var world *eval.World
	if needWorld {
		fmt.Fprintf(os.Stderr, "building world (seed=%d users=%d)...\n", *seed, *users)
		var err error
		world, err = eval.NewWorld(eval.WorldConfig{
			Seed:               *seed,
			NumUsers:           *users,
			MeanQueriesPerUser: *mean,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "world: %s train, %s test\n", world.Train, world.Test)
	}

	type experiment struct {
		name string
		run  func() error
	}
	experiments := []experiment{
		{"table1", func() error {
			fmt.Println(eval.RenderTable1())
			return nil
		}},
		{"crowd", func() error {
			fmt.Println(eval.RunCrowdCampaign(world, eval.CrowdOptions{}))
			return nil
		}},
		{"table2", func() error {
			fmt.Println(eval.RunCategorizerAccuracy(world, *queries*10))
			return nil
		}},
		{"fig7", func() error {
			fmt.Println(eval.RunAdaptiveK(world, *queries*10))
			return nil
		}},
		{"fig5", func() error {
			fmt.Println(eval.RunReIdentification(world, eval.ReIdentificationOptions{K: 7, MaxQueries: *queries}))
			return nil
		}},
		{"fig6", func() error {
			r, err := eval.RunAccuracy(world, eval.AccuracyOptions{K: 3, MaxQueries: minInt(*queries, 300)})
			if err != nil {
				return err
			}
			fmt.Println(r)
			return nil
		}},
		{"fig8a", func() error {
			r, err := eval.RunLatency(world, eval.LatencyOptions{Queries: minInt(*queries, 200), K: 3})
			if err != nil {
				return err
			}
			fmt.Println(r)
			return nil
		}},
		{"fig8b", func() error {
			r, err := eval.RunLatencyVsK(world, minInt(*queries, 200), 32)
			if err != nil {
				return err
			}
			fmt.Println(r)
			return nil
		}},
		{"fig8c", func() error {
			r, err := eval.RunThroughput(world, eval.ThroughputOptions{Duration: *duration, Workers: *concurrency})
			if err != nil {
				return err
			}
			fmt.Println(r)
			return nil
		}},
		{"loadtest", func() error {
			r, err := eval.RunLoadTest(eval.LoadTestOptions{
				Seed:          *seed,
				Concurrency:   *concurrency,
				Duration:      *duration,
				Workload:      *workloadGen,
				Rate:          *rate,
				CompareSerial: true,
				TraceFile:     *traceFile,
			})
			if err != nil {
				return err
			}
			fmt.Println(r)
			return nil
		}},
		{"relay", func() error {
			r, err := eval.RunRelayBench(eval.RelayBenchOptions{Seed: *seed, Iterations: *iterations})
			if err != nil {
				return err
			}
			fmt.Println(r)
			if *jsonOut != "" {
				if err := r.WriteJSON(*jsonOut); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
			}
			return nil
		}},
		{"net", func() error {
			r, err := eval.RunNetBench(eval.NetBenchOptions{
				Seed:        *seed,
				Iterations:  *iterations,
				Concurrency: *concurrency,
			})
			if err != nil {
				return err
			}
			fmt.Println(r)
			if *jsonOut != "" {
				if err := r.WriteJSON(*jsonOut); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
			}
			return nil
		}},
		{"gossip", func() error {
			r, err := eval.RunGossipBench(eval.GossipBenchOptions{Seed: *seed})
			if err != nil {
				return err
			}
			fmt.Println(r)
			if *jsonOut != "" {
				if err := r.WriteJSON(*jsonOut); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
			}
			return nil
		}},
		{"fig8d", func() error {
			r, err := eval.RunLoadBalancing(world, eval.LoadBalancingOptions{})
			if err != nil {
				return err
			}
			fmt.Println(r)
			return nil
		}},
		{"ablation", func() error {
			fmt.Println(eval.RunFakeSourceAblation(world, 7, *queries))
			return nil
		}},
		{"sweep", func() error {
			r, err := eval.RunSensitivitySweep(world, nil, *queries)
			if err != nil {
				return err
			}
			fmt.Println(r)
			return nil
		}},
		{"learning", func() error {
			fmt.Println(eval.RunLearningAdversary(world, 7, *queries/3, 3))
			return nil
		}},
		{"churn", func() error {
			r, err := eval.RunChurn(world, eval.ChurnOptions{})
			if err != nil {
				return err
			}
			fmt.Println(r)
			return nil
		}},
		{"backend", func() error {
			r, err := eval.RunBackendBench(eval.BackendBenchOptions{Seed: *seed})
			if err != nil {
				return err
			}
			fmt.Println(r)
			if *jsonOut != "" {
				if err := r.WriteJSON(*jsonOut); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
			}
			if r.Failed() {
				return fmt.Errorf("backend: brownout invariants violated (seed %d replays the failure)", *seed)
			}
			return nil
		}},
		{"accounting", func() error {
			r, err := eval.RunAccountingBench(eval.AccountingBenchOptions{Seed: *seed, Duration: *duration})
			if err != nil {
				return err
			}
			fmt.Println(r)
			if *jsonOut != "" {
				if err := r.WriteJSON(*jsonOut); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
			}
			if r.Failed() {
				return fmt.Errorf("accounting: admission invariants violated (seed %d replays the failure)", *seed)
			}
			return nil
		}},
		{"privacy", func() error {
			r, err := eval.RunPrivacyBench(eval.PrivacyBenchOptions{
				Seed:        *seed,
				Users:       privacyUsers,
				MeanQueries: privacyMean,
				Queries:     privacyQueries,
				WANNodes:    *wanNodes,
			})
			if err != nil {
				return err
			}
			fmt.Println(r)
			if *jsonOut != "" {
				if err := r.WriteJSON(*jsonOut); err != nil {
					return err
				}
				fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
			}
			if r.Failed() {
				return fmt.Errorf("privacy: re-identification invariants violated (seed %d replays the failure)", *seed)
			}
			return nil
		}},
		{"chaos", func() error {
			r, err := eval.RunChaos(eval.ChaosOptions{
				Seed:      *seed,
				Clients:   *concurrency,
				Rounds:    *rounds,
				Workload:  chaosWorkload,
				Intensity: *intensity,
			})
			if err != nil {
				return err
			}
			fmt.Println(r)
			if r.Failed() {
				return fmt.Errorf("chaos: protocol invariants violated (seed %d replays the failure)", *seed)
			}
			return nil
		}},
	}

	ran := false
	for _, e := range experiments {
		if want != "all" && want != e.name {
			continue
		}
		if want == "all" && (e.name == "fig8c" || e.name == "loadtest" || e.name == "relay" || e.name == "net" || e.name == "backend" || e.name == "accounting") {
			fmt.Printf("%s: skipped in -exp all (real-time load test); run -exp %s explicitly\n", e.name, e.name)
			continue
		}
		if want == "all" && e.name == "privacy" {
			fmt.Printf("privacy: skipped in -exp all (heavyweight adversarial sweep); run -exp privacy explicitly\n")
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", e.name)
		if err := e.run(); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
