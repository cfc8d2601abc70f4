package simnet

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"cyclosa/internal/rps"
	"cyclosa/internal/stats"
	"cyclosa/internal/transport"
)

// This file scales the membership-churn machinery to planet-scale: a
// 10k-node overlay whose links carry the WAN latency/loss matrix, whose
// churn follows heavy-tailed (Pareto) session lifetimes with flash-crowd
// join waves, and whose view quality (in-degree spread, convergence rounds,
// partition-heal time) is measured against seeded bounds. The schedule
// generator and the driver are pure functions of their seed, like
// GenSchedule and MembershipChurn before them, and use fresh seed salts so
// the existing streams stay byte-identical.

// FlashCrowd is a join wave: Size nodes arriving in one round.
type FlashCrowd struct {
	Round int
	Size  int
}

// WANChurnConfig parameterizes the heavy-tailed churn schedule.
type WANChurnConfig struct {
	// Rounds is the schedule length.
	Rounds int
	// BaseNodes is the stable initial population (it never leaves; only
	// churned sessions do).
	BaseNodes int
	// ChurnPerRound is the expected joins per round as a fraction of
	// BaseNodes (default 0.005, i.e. 50/round at N=10k).
	ChurnPerRound float64
	// FlashCrowds are additional join waves on top of the steady churn.
	FlashCrowds []FlashCrowd
}

// Session lifetimes are Pareto: L = lifetimeMin · U^(−1/lifetimeShape)
// rounds. 1.5 is the heavy tail observed in P2P session traces; no session
// is shorter than two rounds.
const (
	lifetimeShape = 1.5
	lifetimeMin   = 2.0
)

// WANChurnSchedule is a deterministic churn schedule: JoinsAt[r] sessions
// are born in round r+1, and LeavesAt[r] lists the session numbers ending
// in round r+1. Session s is the node named by WANSessionID(s). Pure
// function of (seed, config); replays byte-identically.
type WANChurnSchedule struct {
	JoinsAt  []int
	LeavesAt [][]int
	Sessions int
}

// WANSessionID names churned session s (distinct from the rps.Name space of
// the stable base population).
func WANSessionID(s int) rps.NodeID {
	return rps.NodeID(fmt.Sprintf("wanj%06d", s))
}

// String renders the schedule as one replayable line per active round —
// the determinism tests byte-compare it.
func (s *WANChurnSchedule) String() string {
	out := fmt.Sprintf("sessions=%d", s.Sessions)
	for r := range s.JoinsAt {
		if s.JoinsAt[r] == 0 && len(s.LeavesAt[r]) == 0 {
			continue
		}
		out += fmt.Sprintf("\nround %d: joins=%d leaves=%v", r+1, s.JoinsAt[r], s.LeavesAt[r])
	}
	return out
}

// GenWANChurn draws the heavy-tailed churn schedule. Steady joins are
// Poisson-ish (a seeded Bernoulli mixture around the configured rate),
// flash crowds land whole, and every session gets a Pareto lifetime
// L = lifetimeMin · U^(−1/lifetimeShape) rounds; the session leaves when its
// lifetime expires within the schedule. The generator salts the seed
// (seed ^ 0x77616e63), so it shares no stream with GenSchedule,
// GenBrownoutSchedule or the churn drivers.
func GenWANChurn(seed int64, cfg WANChurnConfig) WANChurnSchedule {
	if cfg.ChurnPerRound == 0 {
		cfg.ChurnPerRound = 0.005
	}
	if cfg.Rounds <= 0 {
		return WANChurnSchedule{}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x77616e63))
	sched := WANChurnSchedule{
		JoinsAt:  make([]int, cfg.Rounds),
		LeavesAt: make([][]int, cfg.Rounds),
	}
	mean := cfg.ChurnPerRound * float64(cfg.BaseNodes)
	session := 0
	admit := func(r, count int) {
		for i := 0; i < count; i++ {
			sched.JoinsAt[r]++
			// Pareto session lifetime, at least one round.
			life := int(math.Ceil(lifetimeMin * math.Pow(1-rng.Float64(), -1/lifetimeShape)))
			if life < 1 {
				life = 1
			}
			if end := r + life; end < cfg.Rounds {
				sched.LeavesAt[end] = append(sched.LeavesAt[end], session)
			}
			session++
		}
	}
	for r := 0; r < cfg.Rounds; r++ {
		// Steady churn: floor(mean) guaranteed joins plus a Bernoulli draw
		// for the fractional part.
		n := int(mean)
		if rng.Float64() < mean-float64(n) {
			n++
		}
		admit(r, n)
		for _, fc := range cfg.FlashCrowds {
			if fc.Round == r+1 && fc.Size > 0 {
				admit(r, fc.Size)
			}
		}
	}
	sched.Sessions = session
	return sched
}

// WANChurnOptions configures a planet-scale churn run.
type WANChurnOptions struct {
	// Seed derives the whole run: WAN matrix, churn schedule, node
	// randomness, shuffles.
	Seed int64
	// Nodes is the stable base population (default 10000).
	Nodes int
	// Rounds is the number of gossip rounds driven (default 30).
	Rounds int
	// WAN is the latency/loss matrix config; the zero value takes
	// transport.DefaultWANConfig re-seeded from Seed.
	WAN transport.WANConfig
	// Churn is the heavy-tailed churn schedule config (Rounds and BaseNodes
	// are filled from this struct).
	Churn WANChurnConfig
	// PartitionAt and HealAt bound a region-level partition window: from
	// round PartitionAt (inclusive) to HealAt (exclusive) the first two
	// regions are split from the rest — a transatlantic cable cut. Zero
	// values disable it.
	PartitionAt, HealAt int
	// ConvergeFrac is the reachability fraction that counts as converged
	// (default 0.999). At planet scale with continuous churn a handful of
	// just-joined nodes always lag a round behind — demanding 100% would
	// never hold, and the paper's property is overlay health, not instant
	// integration.
	ConvergeFrac float64
}

const (
	// wanSeeds is the bootstrap seed-set size of a WAN run.
	wanSeeds = 12
	// wanRoundBudget is the per-exchange deadline: a sampled round trip
	// above it counts as a timeout and the exchange fails.
	wanRoundBudget = 800 * time.Millisecond
)

// WANChurnReport is the outcome of a planet-scale churn run.
type WANChurnReport struct {
	// Rounds, Nodes are the driven scale.
	Rounds, Nodes int
	// ConvergedAt is the first round with every alive node reachable from
	// the first seed (0 = never); ReconvergedAt the first such round at or
	// after the last disturbance.
	ConvergedAt, ReconvergedAt int
	// LastDisturbance is the round of the final scheduled disturbance.
	LastDisturbance int
	// HealRounds is how many rounds after HealAt the overlay first counted
	// as converged again (partition-heal time), −1 if it never re-knit,
	// 0 with no partition scheduled.
	HealRounds int
	// FinalAlive and FinalReachable describe the last round.
	FinalAlive, FinalReachable int
	// Joins and Leaves count fired churn events.
	Joins, Leaves int
	// Rebootstraps counts stranded nodes falling back to the seed list.
	Rebootstraps int
	// Exchanges, Losses, Timeouts count gossip deliveries and their WAN
	// fates.
	Exchanges, Losses, Timeouts int
	// RTTp50 and RTTp95 summarize the sampled round trips of successful
	// exchanges.
	RTTp50, RTTp95 time.Duration
	// MinInDegree, MaxInDegree and MeanInDegree describe the final
	// in-degree distribution over alive non-seed nodes (load-spread check:
	// the bootstrap seeds are excluded because every join and re-bootstrap
	// points at them by design, so their in-degree grows with churn, not
	// with gossip imbalance).
	MinInDegree, MaxInDegree int
	MeanInDegree             float64
	// SeedMaxInDegree is the highest seed in-degree (informational).
	SeedMaxInDegree int
	// ConvergeFrac is the reachability fraction the run counted as
	// converged.
	ConvergeFrac float64
	// RegionCounts is the base population per region.
	RegionCounts map[string]int
	// Log is the deterministic per-round trace; byte-identical across runs
	// with the same options.
	Log []string
}

// Check returns one line per violated view-quality invariant (empty =
// clean). The bounds are the scale-invariant ones: convergence happens, the
// final overlay is whole, load spread stays within a small multiple of the
// mean, and a healed partition re-knits.
func (r *WANChurnReport) Check() []string {
	var bad []string
	if r.ConvergedAt == 0 {
		bad = append(bad, "overlay never converged")
	}
	if need := int(math.Ceil(r.ConvergeFrac * float64(r.FinalAlive))); r.FinalReachable < need {
		bad = append(bad, fmt.Sprintf("final round: %d of %d alive nodes reachable (need %d)", r.FinalReachable, r.FinalAlive, need))
	}
	if r.MeanInDegree > 0 && float64(r.MaxInDegree) > 12*r.MeanInDegree {
		bad = append(bad, fmt.Sprintf("in-degree hotspot: max %d vs mean %.1f", r.MaxInDegree, r.MeanInDegree))
	}
	if r.HealRounds < 0 {
		bad = append(bad, "overlay never re-converged after partition heal")
	}
	return bad
}

// WANChurn drives a planet-scale churned overlay over the WAN matrix. It is
// MembershipChurn's shape at scale — events between rounds (the GenWANChurn
// schedule), a link closure (region partition, then the matrix's loss draw
// and the round-trip budget, keyed by the link's own delivery index), and
// convergence bookkeeping — over the same rps.Network rounds, serial and
// deterministic: node order is drawn from the driver stream (salted
// Seed ^ 0x77616e64), per-link WAN draws key off the matrix's own seeded
// streams.
func WANChurn(opts WANChurnOptions) (*WANChurnReport, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 10000
	}
	if opts.Nodes < 4 {
		return nil, fmt.Errorf("simnet: wan churn needs >= 4 nodes, got %d", opts.Nodes)
	}
	if opts.Nodes > 10000 {
		// rps.Name is a 4-digit namespace; the churned sessions have their
		// own. Growing past it needs a wider namespace, not silent wrapping.
		return nil, fmt.Errorf("simnet: wan churn base population capped at 10000, got %d", opts.Nodes)
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 30
	}
	if err := checkPartitionWindow(opts.PartitionAt, opts.HealAt); err != nil {
		return nil, err
	}
	if opts.ConvergeFrac == 0 {
		opts.ConvergeFrac = 0.999
	}
	if opts.ConvergeFrac < 0 || opts.ConvergeFrac > 1 {
		return nil, fmt.Errorf("simnet: converge fraction %v not in (0, 1]", opts.ConvergeFrac)
	}
	wcfg := opts.WAN
	if len(wcfg.Regions) == 0 {
		wcfg = transport.DefaultWANConfig(opts.Seed)
	}
	matrix, err := transport.NewWANMatrix(wcfg)
	if err != nil {
		return nil, err
	}
	if opts.HealAt > 0 && len(matrix.Regions()) < 2 {
		return nil, fmt.Errorf("simnet: region partition needs >= 2 regions")
	}

	opts.Churn.Rounds = opts.Rounds
	opts.Churn.BaseNodes = opts.Nodes
	sched := GenWANChurn(opts.Seed, opts.Churn)

	rng := rand.New(rand.NewSource(opts.Seed ^ 0x77616e64))
	net := rps.NewSeededNetwork(opts.Nodes, wanSeeds, rps.Config{}, opts.Seed, rng)
	report := &WANChurnReport{
		Rounds:       opts.Rounds,
		Nodes:        opts.Nodes,
		ConvergeFrac: opts.ConvergeFrac,
		RegionCounts: make(map[string]int),
	}
	base := net.NodeIDs()
	for _, id := range base {
		report.RegionCounts[matrix.RegionName(string(id))]++
	}

	lastDisturbance := opts.HealAt
	for r := range sched.JoinsAt {
		if sched.JoinsAt[r] > 0 || len(sched.LeavesAt[r]) > 0 {
			lastDisturbance = max(lastDisturbance, r+1)
		}
	}
	report.LastDisturbance = lastDisturbance

	// The link: a region split (group 0 = the first two regions, group 1 =
	// the rest) while partitioned, then the WAN's fate for this delivery of
	// this directed pair.
	partitioned := false
	linkIdx := make(map[[2]rps.NodeID]uint64)
	var rtts []time.Duration
	net.SetLink(func(from, to rps.NodeID) bool {
		if partitioned && (matrix.Region(string(from)) < 2) != (matrix.Region(string(to)) < 2) {
			return false
		}
		key := [2]rps.NodeID{from, to}
		idx := linkIdx[key]
		linkIdx[key] = idx + 1
		if matrix.Lose(string(from), string(to), idx) {
			report.Losses++
			return false
		}
		rtt := matrix.RTT(string(from), string(to), idx)
		if rtt > wanRoundBudget {
			report.Timeouts++
			return false
		}
		rtts = append(rtts, rtt)
		return true
	})

	logf := func(format string, args ...any) {
		report.Log = append(report.Log, fmt.Sprintf(format, args...))
	}

	healedAt := 0
	for r := 1; r <= opts.Rounds; r++ {
		joins, leaves := sched.JoinsAt[r-1], 0
		for i := 0; i < joins; i++ {
			net.Add(WANSessionID(report.Joins), nil)
			report.Joins++
		}
		for _, s := range sched.LeavesAt[r-1] {
			if id := WANSessionID(s); net.Node(id) != nil {
				net.Remove(id)
				leaves++
			}
		}
		report.Leaves += leaves
		if opts.HealAt > 0 && r == opts.PartitionAt {
			logf("round %d: partition regions {0,1} | rest", r)
		}
		if opts.HealAt > 0 && r == opts.HealAt {
			logf("round %d: heal", r)
		}

		partitioned = opts.HealAt > 0 && r >= opts.PartitionAt && r < opts.HealAt
		ids := net.NodeIDs()
		losses, timeouts := report.Losses, report.Timeouts
		rebootstraps := len(net.Round())
		report.Rebootstraps += rebootstraps
		report.Exchanges += len(ids) - rebootstraps

		eligible, reachable := len(ids), net.Reachable(ids[0])
		converged := reachable >= int(math.Ceil(opts.ConvergeFrac*float64(eligible)))
		if converged && !partitioned {
			if report.ConvergedAt == 0 {
				report.ConvergedAt = r
			}
			if report.ReconvergedAt == 0 && r >= lastDisturbance {
				report.ReconvergedAt = r
			}
			if healedAt == 0 && opts.HealAt > 0 && r >= opts.HealAt {
				healedAt = r
			}
		}
		logf("round %d: join=%d leave=%d alive=%d reachable=%d loss=%d timeout=%d rebootstrap=%d",
			r, joins, leaves, eligible, reachable, report.Losses-losses, report.Timeouts-timeouts, rebootstraps)
		if r == opts.Rounds {
			report.FinalAlive, report.FinalReachable = eligible, reachable
		}
	}

	if opts.HealAt > 0 {
		if healedAt >= opts.HealAt {
			report.HealRounds = healedAt - opts.HealAt
		} else {
			report.HealRounds = -1
		}
	}

	report.RTTp50, report.RTTp95 = stats.Percentile(rtts, 50), stats.Percentile(rtts, 95)

	deg := net.InDegrees()
	seeds := base[:min(wanSeeds, len(base))]
	_, report.SeedMaxInDegree, _ = degreeSpread(deg, seeds)
	report.MinInDegree, report.MaxInDegree, report.MeanInDegree = degreeSpread(deg, without(net.NodeIDs(), seeds))
	return report, nil
}
