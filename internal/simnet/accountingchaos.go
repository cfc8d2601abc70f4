package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"cyclosa/internal/accounting"
)

// AccountingChaosOptions configures a partition-heal run over the
// misbehavior ledgers. Unlike Chaos, no overlay or workload runs: the
// experiment isolates exactly the property the accounting plane must
// provide — evidence recorded anywhere survives partitions, merges
// idempotently, and converges to the same exact totals on every replica
// once the partition heals.
type AccountingChaosOptions struct {
	// Seed derives the event stream, the merge schedule and the partition
	// membership. The whole run is a pure function of it.
	Seed int64
	// Replicas is the number of ledger-carrying nodes (default 8).
	Replicas int
	// Subjects is the number of distinct misbehaving subjects charged
	// (default 5).
	Subjects int
	// Rounds is the number of event/merge rounds (default 12).
	Rounds int
	// PartitionStart / PartitionEnd bound the partition window in rounds:
	// rounds in [start, end) run split into two sides. Defaults cover the
	// middle half of the run.
	PartitionStart, PartitionEnd int
}

const (
	// accountingEventsPerRound misbehavior observations and
	// accountingMergesPerRound pairwise anti-entropy exchanges fire per
	// round; during the partition window pairs are drawn only within a side.
	accountingEventsPerRound = 6
	accountingMergesPerRound = 4
	// accountingPardonRate is the probability an event is a pardon (an
	// N-side decrement) instead of a charge, so the run exercises both
	// halves of the PN-counter.
	accountingPardonRate = 0.15
)

// AccountingChaosReport is the outcome of a partition-heal accounting run.
type AccountingChaosReport struct {
	// Events / Pardons count the misbehavior observations injected (every
	// one targets exactly one replica's ledger).
	Events, Pardons uint64
	// Merges counts pairwise wire exchanges; PartitionedMerges the subset
	// confined to one partition side; DuplicateMerges the deliberate
	// re-merges of an already-applied payload (which must change nothing).
	Merges, PartitionedMerges, DuplicateMerges uint64
	// DuplicateChanges counts subjects a duplicate re-merge reported as
	// changed — any nonzero value is a double-apply bug.
	DuplicateChanges uint64
	// Expected is the ground-truth net total per subject: every charge
	// minus every pardon, regardless of which replica observed it.
	Expected map[string]int64
	// PerReplica is each replica's post-heal view of every subject.
	PerReplica []map[string]int64
	// Divergences lists every replica/subject whose post-heal value
	// differs from Expected (empty means exact convergence).
	Divergences []string
}

// AccountingChaos runs the partition-heal ledger experiment: seeded
// misbehavior events land on individual replicas, anti-entropy merges use
// the same wire codec the gossip frame carries, a partition window confines
// merges to two disjoint sides, and deliberate duplicate re-merges probe
// idempotence. After the window a deterministic heal sweep (gather to
// replica 0, scatter back) guarantees full propagation, so Check can demand
// exact convergence: no count lost, none double-applied.
func AccountingChaos(opts AccountingChaosOptions) (*AccountingChaosReport, error) {
	if opts.Replicas == 0 {
		opts.Replicas = 8
	}
	if opts.Replicas < 4 {
		return nil, fmt.Errorf("simnet: accounting chaos needs >= 4 replicas, got %d", opts.Replicas)
	}
	if opts.Subjects <= 0 {
		opts.Subjects = 5
	}
	if opts.Rounds <= 0 {
		opts.Rounds = 12
	}
	if opts.PartitionStart == 0 && opts.PartitionEnd == 0 {
		opts.PartitionStart = opts.Rounds / 4
		opts.PartitionEnd = opts.Rounds * 3 / 4
	}
	if opts.PartitionStart < 0 || opts.PartitionEnd > opts.Rounds || opts.PartitionStart >= opts.PartitionEnd {
		return nil, fmt.Errorf("simnet: accounting chaos partition window [%d, %d) out of range for %d rounds",
			opts.PartitionStart, opts.PartitionEnd, opts.Rounds)
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	ledgers := make([]*accounting.Ledger, opts.Replicas)
	for i := range ledgers {
		ledgers[i] = accounting.NewLedger(fmt.Sprintf("replica%02d", i))
	}
	subjects := make([]string, opts.Subjects)
	for i := range subjects {
		subjects[i] = fmt.Sprintf("subject%02d", i)
	}

	// Partition membership: a seeded shuffle split in half, so sides are
	// not just index parity and still deterministic per seed.
	order := rng.Perm(opts.Replicas)
	side := make([]int, opts.Replicas)
	for pos, idx := range order {
		if pos >= opts.Replicas/2 {
			side[idx] = 1
		}
	}

	report := &AccountingChaosReport{Expected: make(map[string]int64)}

	// merge exchanges a's wire state into b and vice versa — the same
	// symmetric shape the frameAccounting round trip produces.
	merge := func(a, b *accounting.Ledger) error {
		if _, err := b.MergeWire(a.AppendWire(nil)); err != nil {
			return fmt.Errorf("simnet: accounting merge %s->%s: %w", a.Self(), b.Self(), err)
		}
		if _, err := a.MergeWire(b.AppendWire(nil)); err != nil {
			return fmt.Errorf("simnet: accounting merge %s->%s: %w", b.Self(), a.Self(), err)
		}
		report.Merges++
		return nil
	}

	for round := 0; round < opts.Rounds; round++ {
		partitioned := round >= opts.PartitionStart && round < opts.PartitionEnd

		for e := 0; e < accountingEventsPerRound; e++ {
			r := rng.Intn(opts.Replicas)
			s := subjects[rng.Intn(len(subjects))]
			delta := uint64(1 + rng.Intn(3))
			if rng.Float64() < accountingPardonRate {
				ledgers[r].Pardon(s, delta)
				report.Expected[s] -= int64(delta)
				report.Pardons++
			} else {
				ledgers[r].Inc(s, delta)
				report.Expected[s] += int64(delta)
				report.Events++
			}
		}

		for m := 0; m < accountingMergesPerRound; m++ {
			a := rng.Intn(opts.Replicas)
			b := rng.Intn(opts.Replicas)
			if partitioned {
				// Redraw b inside a's side; with >= 2 replicas per side
				// this terminates, and stays on the seeded stream.
				for b == a || side[b] != side[a] {
					b = rng.Intn(opts.Replicas)
				}
				report.PartitionedMerges++
			} else {
				for b == a {
					b = rng.Intn(opts.Replicas)
				}
			}
			if err := merge(ledgers[a], ledgers[b]); err != nil {
				return nil, err
			}
			// Every third merge replays a's payload against b a second
			// time: an already-applied state must change nothing.
			if m%3 == 0 {
				changed, err := ledgers[b].MergeWire(ledgers[a].AppendWire(nil))
				if err != nil {
					return nil, fmt.Errorf("simnet: accounting duplicate merge: %w", err)
				}
				report.DuplicateMerges++
				report.DuplicateChanges += uint64(len(changed))
			}
		}
	}

	// Heal sweep: gather every replica into replica 0, then scatter back.
	// Two passes of pairwise max-merge reach full propagation regardless of
	// what the random schedule covered.
	for i := 1; i < opts.Replicas; i++ {
		if err := merge(ledgers[i], ledgers[0]); err != nil {
			return nil, err
		}
	}
	for i := 1; i < opts.Replicas; i++ {
		if err := merge(ledgers[0], ledgers[i]); err != nil {
			return nil, err
		}
	}

	report.PerReplica = make([]map[string]int64, opts.Replicas)
	for i, l := range ledgers {
		report.PerReplica[i] = l.Values()
		for _, s := range subjects {
			if got, want := report.PerReplica[i][s], report.Expected[s]; got != want {
				report.Divergences = append(report.Divergences,
					fmt.Sprintf("%s: %s = %d, want %d", l.Self(), s, got, want))
			}
		}
	}
	return report, nil
}

// Check verifies the end-of-run invariants and returns one line per
// violated property (empty means the accounting plane converged exactly).
func (r *AccountingChaosReport) Check() []string {
	var bad []string
	if len(r.Divergences) > 0 {
		bad = append(bad, fmt.Sprintf("post-heal divergence on %d replica/subject pair(s): %s",
			len(r.Divergences), strings.Join(r.Divergences, "; ")))
	}
	if r.DuplicateChanges > 0 {
		bad = append(bad, fmt.Sprintf("duplicate re-merges double-applied %d subject(s)", r.DuplicateChanges))
	}
	if r.Events == 0 {
		bad = append(bad, "no misbehavior events fired; the run proved nothing")
	}
	if r.PartitionedMerges == 0 {
		bad = append(bad, "no merges ran inside the partition window")
	}
	if r.DuplicateMerges == 0 {
		bad = append(bad, "no duplicate re-merges probed idempotence")
	}
	return bad
}

// String renders the accounting chaos report.
func (r *AccountingChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "AccountingChaos: %d charges, %d pardons across %d replicas\n",
		r.Events, r.Pardons, len(r.PerReplica))
	fmt.Fprintf(&b, "merges: %d total, %d partition-confined, %d duplicate replays (%d changes)\n",
		r.Merges, r.PartitionedMerges, r.DuplicateMerges, r.DuplicateChanges)
	subjects := make([]string, 0, len(r.Expected))
	for s := range r.Expected {
		subjects = append(subjects, s)
	}
	sort.Strings(subjects)
	b.WriteString("totals: ")
	for i, s := range subjects {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s=%d", s, r.Expected[s])
	}
	b.WriteByte('\n')
	writeVerdict(&b, "", nil, r.Check(), "exact convergence on every replica, no double-apply")
	return b.String()
}
