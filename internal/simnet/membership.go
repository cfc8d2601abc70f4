package simnet

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"cyclosa/internal/rps"
)

// MembershipOptions configures a churned-membership chaos run: a seeded
// gossip overlay bootstrapped from a small seed set, subjected to message
// loss, joins, leaves, a partition window and a gossip-suppressed blacklist
// event, with the convergence and no-re-entry invariants checked every
// round. Everything derives from Seed, so a failing run replays exactly.
type MembershipOptions struct {
	// Seed derives the whole run (node randomness, churn schedule, drops).
	Seed int64
	// Nodes is the initial overlay size (default 32).
	Nodes int
	// Seeds is the number of bootstrap seed nodes; every node's initial view
	// holds the seeds alone, like daemons started with -bootstrap
	// (default 2).
	Seeds int
	// Rounds is the number of gossip rounds driven (default 40).
	Rounds int
	// DropRate is the per-exchange message-loss probability.
	DropRate float64
	// Joins and Leaves are the number of mid-run membership changes, spread
	// deterministically over the middle half of the run.
	Joins, Leaves int
	// PartitionAt and HealAt bound a two-way partition window: from round
	// PartitionAt (inclusive) to HealAt (exclusive) the overlay is split in
	// two halves that cannot exchange. Zero values disable the partition.
	PartitionAt, HealAt int
	// BlacklistAt, when > 0, is the round at which one victim node is
	// blacklisted by every other node (the control-plane reaction to the
	// data plane detecting relay misbehavior). The victim keeps gossiping —
	// adversarially trying to re-enter — and the no-re-entry invariant must
	// hold anyway.
	BlacklistAt int
}

// MembershipReport is the outcome of a churned-membership run.
type MembershipReport struct {
	// Rounds is the number of rounds driven.
	Rounds int
	// ConvergedAt is the first round at which every eligible node was
	// reachable from the first seed by following view edges (0 = never).
	ConvergedAt int
	// ReconvergedAt is the first converged round at or after the last
	// disturbance (join, leave, heal, blacklist); 0 = never re-converged.
	ReconvergedAt int
	// LastDisturbance is the round of the final scheduled disturbance.
	LastDisturbance int
	// FinalAlive and FinalReachable describe the last round.
	FinalAlive, FinalReachable int
	// Joins and Leaves count the churn events that actually fired.
	Joins, Leaves int
	// Victim is the blacklisted node ("" when BlacklistAt is off).
	Victim string
	// Reentries lists every blacklist re-entry observed — one entry is an
	// invariant violation.
	Reentries []string
	// MinInDegree and MaxInDegree bound the final in-degree distribution
	// over eligible nodes (load-spread check).
	MinInDegree, MaxInDegree int
	// Log is the deterministic event trace; byte-identical across runs with
	// the same options.
	Log []string
}

// Check returns one line per violated membership property (empty = clean).
func (r *MembershipReport) Check() []string {
	var bad []string
	if len(r.Reentries) > 0 {
		bad = append(bad, fmt.Sprintf("blacklisted node re-entered a view %d time(s): %s",
			len(r.Reentries), strings.Join(r.Reentries, "; ")))
	}
	if r.ConvergedAt == 0 {
		bad = append(bad, "overlay never converged")
	}
	if r.FinalReachable != r.FinalAlive {
		bad = append(bad, fmt.Sprintf("final round: %d of %d eligible nodes reachable", r.FinalReachable, r.FinalAlive))
	}
	return bad
}

// MembershipChurn is the run defined as events, a link and bookkeeping over
// the one round driver, rps.Network: joins, leaves, the partition draw and
// the blacklist event happen between rounds; the link closure refuses
// exchanges across the partition and from a blacklisted initiator (loss is
// the network's pre-drawn drop roll); after every round the no-re-entry
// invariant and convergence are checked. It is fully serial and
// deterministic: leave, partition and victim choices come from the same
// salted driver stream (Seed ^ 0x6d656d62) the round order and drops do.
func MembershipChurn(opts MembershipOptions) (*MembershipReport, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 32
	}
	if opts.Nodes < 4 {
		return nil, fmt.Errorf("simnet: membership churn needs >= 4 nodes, got %d", opts.Nodes)
	}
	if opts.Seeds <= 0 {
		opts.Seeds = 2
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 40
	}
	if err := checkPartitionWindow(opts.PartitionAt, opts.HealAt); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opts.Seed ^ 0x6d656d62))
	net := rps.NewSeededNetwork(opts.Nodes, opts.Seeds, rps.Config{}, opts.Seed, rng)
	net.SetDropRate(opts.DropRate)
	report := &MembershipReport{Rounds: opts.Rounds}

	// Churn schedule: joins and leaves spread over the middle half.
	churnRound := func(i, total int) int {
		return opts.Rounds/4 + (i*max(opts.Rounds/2, 1))/total + 1
	}
	joinAt := make(map[int]int)
	for i := 0; i < opts.Joins; i++ {
		joinAt[churnRound(i, opts.Joins)]++
	}
	leaveAt := make(map[int]int)
	for i := 0; i < opts.Leaves; i++ {
		leaveAt[churnRound(i, opts.Leaves)]++
	}
	lastDisturbance := max(opts.HealAt, opts.BlacklistAt)
	for r := range joinAt {
		lastDisturbance = max(lastDisturbance, r)
	}
	for r := range leaveAt {
		lastDisturbance = max(lastDisturbance, r)
	}
	report.LastDisturbance = lastDisturbance

	// victim is the blacklisted node, once chosen; it is taken out of the
	// graph for reachability and in-degree (everyone else has dropped it).
	var victim []rps.NodeID
	// nonSeeds picks leave/blacklist candidates. Seeds are excluded by
	// identity, not by slice position — joined nodes ("joinNNNN") sort
	// before the seeds ("nodeNNNN"), so slicing the sorted IDs would stop
	// protecting the seeds as soon as the first join lands.
	seedIDs := net.NodeIDs()[:min(opts.Seeds, opts.Nodes)]
	nonSeeds := func(exclude ...rps.NodeID) []rps.NodeID {
		return without(net.NodeIDs(), append(exclude, seedIDs...))
	}

	partition := make(map[rps.NodeID]int)
	partitioned := false
	net.SetLink(func(from, to rps.NodeID) bool {
		if partitioned && partition[from] != partition[to] {
			return false
		}
		// Gossip suppression: the passive side refuses a blacklisted
		// initiator outright — no admission, no view information.
		return !net.Node(to).IsBlacklisted(from)
	})

	logf := func(format string, args ...any) {
		report.Log = append(report.Log, fmt.Sprintf(format, args...))
	}

	for r := 1; r <= opts.Rounds; r++ {
		// Membership events first: they model operators and failures acting
		// between gossip rounds.
		for i := 0; i < joinAt[r]; i++ {
			id := rps.NodeID(fmt.Sprintf("join%04d", opts.Nodes+report.Joins))
			net.Add(id, nil)
			report.Joins++
			logf("round %d: join %s", r, id)
		}
		for i := 0; i < leaveAt[r]; i++ {
			// Leave a deterministic non-seed, non-victim node.
			leavers := nonSeeds(victim...)
			if len(leavers) == 0 {
				break
			}
			id := leavers[rng.Intn(len(leavers))]
			net.Remove(id)
			delete(partition, id)
			report.Leaves++
			logf("round %d: leave %s", r, id)
		}
		if opts.HealAt > 0 && r == opts.PartitionAt {
			ids := net.NodeIDs()
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			for i, id := range ids {
				partition[id] = i % 2
			}
			logf("round %d: partition", r)
		}
		if opts.HealAt > 0 && r == opts.HealAt {
			partition = make(map[rps.NodeID]int)
			logf("round %d: heal", r)
		}
		if opts.BlacklistAt > 0 && r == opts.BlacklistAt {
			if candidates := nonSeeds(); len(candidates) > 0 {
				v := candidates[rng.Intn(len(candidates))]
				victim = []rps.NodeID{v}
				report.Victim = string(v)
				for _, id := range net.NodeIDs() {
					if id != v {
						net.Node(id).Blacklist(v)
					}
				}
				logf("round %d: blacklist %s", r, v)
			} else {
				logf("round %d: blacklist skipped, no non-seed candidate", r)
			}
		}

		partitioned = opts.HealAt > 0 && r >= opts.PartitionAt && r < opts.HealAt
		for _, id := range net.Round() {
			logf("round %d: %s re-bootstraps", r, id)
		}

		// Invariants and convergence, every round.
		ids := net.NodeIDs()
		for _, id := range ids {
			node := net.Node(id)
			for _, d := range node.View() {
				if node.IsBlacklisted(d.ID) {
					report.Reentries = append(report.Reentries,
						fmt.Sprintf("round %d: %s holds blacklisted %s", r, id, d.ID))
				}
			}
		}
		eligible := without(ids, victim)
		reachable := net.Reachable(eligible[0], victim...)
		if reachable == len(eligible) && !partitioned {
			if report.ConvergedAt == 0 {
				report.ConvergedAt = r
			}
			if report.ReconvergedAt == 0 && r >= lastDisturbance {
				report.ReconvergedAt = r
			}
		}
		if r == opts.Rounds {
			report.FinalAlive, report.FinalReachable = len(eligible), reachable
		}
	}

	report.MinInDegree, report.MaxInDegree, _ = degreeSpread(net.InDegrees(victim...), without(net.NodeIDs(), victim))
	return report, nil
}

// checkPartitionWindow validates a [partitionAt, healAt) round window; both
// zero means no partition.
func checkPartitionWindow(partitionAt, healAt int) error {
	if partitionAt < 0 || healAt < partitionAt {
		return fmt.Errorf("simnet: bad partition window [%d, %d)", partitionAt, healAt)
	}
	if (partitionAt == 0) != (healAt == 0) {
		// Rounds are 1-based: a window with only one bound set would never
		// assign the split (or never heal it) — reject rather than running a
		// phantom partition.
		return fmt.Errorf("simnet: partition window needs both bounds, got [%d, %d)", partitionAt, healAt)
	}
	return nil
}

// without returns a copy of ids minus the excluded ones, order kept.
func without(ids, exclude []rps.NodeID) []rps.NodeID {
	return slices.DeleteFunc(slices.Clone(ids), func(id rps.NodeID) bool { return slices.Contains(exclude, id) })
}

// degreeSpread summarizes the in-degrees of ids: the load-spread check.
func degreeSpread(deg map[rps.NodeID]int, ids []rps.NodeID) (lo, hi int, mean float64) {
	if len(ids) == 0 {
		return 0, 0, 0
	}
	lo, total := deg[ids[0]], 0
	for _, id := range ids {
		lo, hi = min(lo, deg[id]), max(hi, deg[id])
		total += deg[id]
	}
	return lo, hi, float64(total) / float64(len(ids))
}
