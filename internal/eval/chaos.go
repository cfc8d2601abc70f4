package eval

import (
	"fmt"
	"strings"

	"cyclosa/internal/simnet"
)

// ChaosOptions configures the chaos experiment (the cyclosa-bench seam over
// simnet.ChaosOptions).
type ChaosOptions struct {
	// Seed derives the schedule, the fault streams and the workload.
	Seed int64
	// Nodes is the overlay size (default 24).
	Nodes int
	// K is the protection level (default 2).
	K int
	// Clients is the concurrent workload client count (default 8).
	Clients int
	// Rounds is the number of schedule/workload rounds (default 8).
	Rounds int
	// OpsPerRound is the number of searches per round (default 48).
	OpsPerRound int
	// Workload selects the query stream: zipf (default) | trace | fixed.
	Workload string
	// Intensity scales the default fault probabilities. 0 disables the
	// stochastic faults entirely (the crash/partition schedule still runs);
	// the cyclosa-bench -chaos-intensity flag defaults to 1.
	Intensity float64
}

// ChaosExperimentResult wraps the simnet report for rendering.
type ChaosExperimentResult struct {
	Report *simnet.ChaosReport
	Opts   ChaosOptions
}

// RunChaos drives the full fault-injection experiment — seed-derived
// crash/restart/partition schedule plus per-delivery drop, bit-flip,
// truncation, replay, Byzantine-garbage and latency-spike faults — through
// the concurrent workload engine, with every protocol invariant checker
// armed. It needs no World: the sentinel workload is synthesized on the
// spot, so the experiment starts in milliseconds.
func RunChaos(opts ChaosOptions) (*ChaosExperimentResult, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 24
	}
	if opts.K == 0 {
		opts.K = 2
	}
	if opts.Intensity < 0 {
		return nil, fmt.Errorf("eval: chaos intensity must be >= 0, got %g", opts.Intensity)
	}
	faults := simnet.DefaultChaosFaults()
	faults.Drop *= opts.Intensity
	faults.BitFlip *= opts.Intensity
	faults.Truncate *= opts.Intensity
	faults.Replay *= opts.Intensity
	faults.Garbage *= opts.Intensity
	faults.Spike *= opts.Intensity

	report, err := simnet.Chaos(simnet.ChaosOptions{
		Seed:        opts.Seed,
		Nodes:       opts.Nodes,
		K:           opts.K,
		Clients:     opts.Clients,
		Rounds:      opts.Rounds,
		OpsPerRound: opts.OpsPerRound,
		Workload:    opts.Workload,
		Faults:      &faults,
	})
	if err != nil {
		return nil, err
	}
	return &ChaosExperimentResult{Report: report, Opts: opts}, nil
}

// Violations lists the protocol invariants the run broke.
func (r *ChaosExperimentResult) Violations() []string { return r.Report.Check() }

// String renders the experiment: the fault schedule, the report and the
// invariant verdicts.
func (r *ChaosExperimentResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos experiment: seed %d, %d nodes, k=%d, %s workload, intensity %.2g\n",
		r.Opts.Seed, r.Opts.Nodes, r.Opts.K, orDefault(r.Opts.Workload, "zipf"), r.Opts.Intensity)
	fmt.Fprintf(&b, "schedule (%d node-level steps): ", len(r.Report.Schedule))
	for i, s := range r.Report.Schedule {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteByte('\n')
	b.WriteString(r.Report.String())
	b.WriteString("(replay any failure with the same -seed: schedule, fault streams and workload are all derived from it)\n")
	return b.String()
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
