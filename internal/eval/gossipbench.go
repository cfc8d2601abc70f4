package eval

import (
	"fmt"
	"time"

	"cyclosa/internal/simnet"
)

// GossipBenchOptions configures the membership convergence benchmark behind
// cyclosa-bench's -exp gossip: how fast a seeded overlay converges to a
// connected view graph, clean and under churn, tracked PR over PR in
// BENCH_gossip.json.
type GossipBenchOptions struct {
	// Seed derives both runs.
	Seed int64
	// Nodes is the overlay size (default 64).
	Nodes int
	// Seeds is the bootstrap seed count (default 2).
	Seeds int
	// Rounds bounds each run (default 60).
	Rounds int
}

// gossipDropRate is the per-exchange message loss both runs suffer.
const gossipDropRate = 0.1

// GossipBenchResult is one measurement of the membership control plane.
type GossipBenchResult struct {
	// Benchmark names the measured subsystem.
	Benchmark string `json:"benchmark"`
	// Nodes, Seeds and DropRate echo the configuration.
	Nodes    int     `json:"nodes"`
	Seeds    int     `json:"seeds"`
	DropRate float64 `json:"drop_rate"`
	// ConvergedRounds is how many gossip rounds a clean run needs before
	// every node is reachable from the first seed.
	ConvergedRounds int `json:"converged_rounds"`
	// ChurnReconvergedRounds is the round at which the churned run (joins,
	// leaves, a partition window, a blacklist event) was converged again
	// after its last disturbance.
	ChurnReconvergedRounds int `json:"churn_reconverged_rounds"`
	// ChurnLastDisturbance is that run's last disturbance round, for
	// reading the re-convergence gap.
	ChurnLastDisturbance int `json:"churn_last_disturbance"`
	// BlacklistReentries must be 0: the no-re-entry invariant, measured.
	BlacklistReentries int `json:"blacklist_reentries"`
	// MinInDegree/MaxInDegree bound the clean run's final in-degree spread
	// (load balance of relay selection).
	MinInDegree int `json:"min_in_degree"`
	MaxInDegree int `json:"max_in_degree"`
	// NsPerRound is the wall-clock cost of one driver round of the clean
	// run: the gossip exchanges of every node plus the per-round invariant
	// checking (blacklist scan, reachability BFS). It tracks the cost of
	// the verified control plane, not the bare protocol.
	NsPerRound float64 `json:"ns_per_round"`
	Stamp
}

// GossipBenchHistoryEntry is one prior BENCH_gossip measurement, carried
// forward so the file tracks convergence across runs.
type GossipBenchHistoryEntry struct {
	GeneratedAt            string  `json:"generated_at"`
	ConvergedRounds        int     `json:"converged_rounds"`
	ChurnReconvergedRounds int     `json:"churn_reconverged_rounds"`
	NsPerRound             float64 `json:"ns_per_round"`
}

// RunGossipBench measures convergence of the membership control plane: a
// clean seeded run (convergence speed, in-degree spread, per-round cost)
// and a churned run (re-convergence after joins/leaves/partition/blacklist,
// plus the no-re-entry invariant).
func RunGossipBench(opts GossipBenchOptions) (*GossipBenchResult, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 64
	}
	if opts.Seeds <= 0 {
		opts.Seeds = 2
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 60
	}

	start := time.Now()
	clean, err := simnet.MembershipChurn(simnet.MembershipOptions{
		Seed:     opts.Seed,
		Nodes:    opts.Nodes,
		Seeds:    opts.Seeds,
		Rounds:   opts.Rounds,
		DropRate: gossipDropRate,
	})
	if err != nil {
		return nil, fmt.Errorf("clean run: %w", err)
	}
	elapsed := time.Since(start)
	if bad := clean.Check(); len(bad) > 0 {
		return nil, fmt.Errorf("clean run violated membership invariants: %v", bad)
	}

	churnOpts := simnet.MembershipOptions{
		Seed:        opts.Seed,
		Nodes:       opts.Nodes,
		Seeds:       opts.Seeds,
		Rounds:      opts.Rounds * 2,
		DropRate:    gossipDropRate,
		Joins:       opts.Nodes / 8,
		Leaves:      opts.Nodes / 8,
		PartitionAt: opts.Rounds / 2,
		HealAt:      opts.Rounds/2 + opts.Rounds/4,
		BlacklistAt: opts.Rounds / 3,
	}
	churned, err := simnet.MembershipChurn(churnOpts)
	if err != nil {
		return nil, fmt.Errorf("churned run: %w", err)
	}
	if bad := churned.Check(); len(bad) > 0 {
		return nil, fmt.Errorf("churned run violated membership invariants: %v", bad)
	}

	return &GossipBenchResult{
		Benchmark:              "Gossip membership convergence (seeded bootstrap)",
		Nodes:                  opts.Nodes,
		Seeds:                  opts.Seeds,
		DropRate:               gossipDropRate,
		ConvergedRounds:        clean.ConvergedAt,
		ChurnReconvergedRounds: churned.ReconvergedAt,
		ChurnLastDisturbance:   churned.LastDisturbance,
		BlacklistReentries:     len(churned.Reentries),
		MinInDegree:            clean.MinInDegree,
		MaxInDegree:            clean.MaxInDegree,
		NsPerRound:             float64(elapsed.Nanoseconds()) / float64(opts.Rounds),
	}, nil
}

// Summary is the history entry this run leaves behind.
func (r *GossipBenchResult) Summary() any {
	return GossipBenchHistoryEntry{
		GeneratedAt:            r.GeneratedAt,
		ConvergedRounds:        r.ConvergedRounds,
		ChurnReconvergedRounds: r.ChurnReconvergedRounds,
		NsPerRound:             r.NsPerRound,
	}
}

// String renders the result for the terminal.
func (r *GossipBenchResult) String() string {
	return fmt.Sprintf(
		"Gossip membership (%s):\n  %d nodes from %d seeds, %.0f%% drop\n  converged in %d rounds (%.0f ns/round); in-degree %d..%d\n  churned run re-converged at round %d (last disturbance %d), %d blacklist re-entries",
		r.Benchmark, r.Nodes, r.Seeds, 100*r.DropRate,
		r.ConvergedRounds, r.NsPerRound, r.MinInDegree, r.MaxInDegree,
		r.ChurnReconvergedRounds, r.ChurnLastDisturbance, r.BlacklistReentries)
}
