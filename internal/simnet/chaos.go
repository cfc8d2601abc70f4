package simnet

import (
	"fmt"
	"strings"

	"cyclosa/internal/transport"
)

// ChaosOptions configures a chaos run.
type ChaosOptions struct {
	// Seed derives everything: the network, the schedule, the per-delivery
	// fault streams and the workload.
	Seed int64
	// Nodes is the overlay size (default 20).
	Nodes int
	// K is the protection level, fakes per search (0 disables fakes
	// entirely, which also makes a single-client run fully serial).
	K int
	// Clients is the number of concurrent workload clients (default 8);
	// client c drives node c, so distinct clients never share a node's
	// client half.
	Clients int
	// Rounds is the number of schedule/workload rounds (default 8).
	Rounds int
	// OpsPerRound is the number of searches per round (default 48).
	OpsPerRound int
	// Faults are the per-delivery fault probabilities (default: a modest
	// mix of every catalog entry — see DefaultChaosFaults).
	Faults *FaultConfig
	// Workload selects the query stream over the sentinel pool: "zipf"
	// (default), "trace" (pool replay) or "fixed" (one probe query).
	Workload string
	// Transport, when non-nil, wraps the network's direct conduit *under*
	// the fault-injection layer: deliveries flow direct -> Transport ->
	// Sim. It lets the whole chaos suite — schedule, per-delivery faults,
	// invariant checkers, accounting — run over a real transport (e.g.
	// nettrans's loopback TCP data plane) instead of the in-process path.
	// The returned conduit must be reliable when unfaulted, or the
	// delivered-equals-relayed accounting check will trip.
	Transport func(direct transport.Conduit) transport.Conduit
}

// DefaultChaosFaults is the standard chaos mix: every catalog entry fires,
// none dominates, and roughly one delivery in twelve is faulty.
func DefaultChaosFaults() FaultConfig {
	return FaultConfig{
		Drop:     0.02,
		BitFlip:  0.015,
		Truncate: 0.01,
		Replay:   0.01,
		Garbage:  0.015,
		Spike:    0.01,
	}
}

// ChaosReport is the outcome of a chaos run, carrying everything the
// invariant assertions need: what the run measured (searchResult) and the
// delivery-fault headline.
type ChaosReport struct {
	searchResult
	// Errors is ProtoErrors, the failed searches of live clients, and
	// Availability is Ops over Ops + Errors.
	Errors       uint64
	Availability float64
}

// Chaos runs the full fault-injection experiment: a simnet-wrapped network
// under a seed-derived node-level schedule plus per-delivery faults, driven
// by the concurrent workload engine, with every invariant checker armed.
// The caller asserts on the report (tests via require-style checks,
// cyclosa-bench by rendering Check's findings).
func Chaos(opts ChaosOptions) (*ChaosReport, error) {
	if opts.Rounds <= 0 {
		opts.Rounds = 8
	}
	faults := DefaultChaosFaults()
	if opts.Faults != nil {
		faults = *opts.Faults
	}
	h, err := newSearchRun(searchSpec{
		seed:        opts.Seed,
		nodes:       opts.Nodes,
		clients:     opts.Clients,
		opsPerRound: opts.OpsPerRound,
		k:           opts.K,
		workload:    opts.Workload,
		faults:      faults,
		transport:   opts.Transport,
	})
	if err != nil {
		return nil, fmt.Errorf("simnet: chaos: %w", err)
	}
	defer h.close()

	res := newSearchResult()
	if err := h.run(GenSchedule(opts.Seed, h.ids, ScheduleConfig{}), opts.Rounds, res); err != nil {
		return nil, fmt.Errorf("simnet: chaos: %w", err)
	}
	h.totals(res)
	report := &ChaosReport{searchResult: *res, Errors: res.ProtoErrors}
	if total := report.Ops + report.Errors; total > 0 {
		report.Availability = float64(report.Ops) / float64(total)
	}
	return report, nil
}

// Check verifies the end-of-run invariants and returns one line per
// violated property (empty means the run upheld the protocol).
func (r *ChaosReport) Check() []string {
	bad := r.checkCheckers()
	if r.Misbehaved != r.Sim.ContentFaults() {
		bad = append(bad, fmt.Sprintf("tamper accounting: %d forged deliveries injected, %d misbehavior rejections observed",
			r.Sim.ContentFaults(), r.Misbehaved))
	}
	if r.Relayed != r.Sim.Delivered {
		bad = append(bad, fmt.Sprintf("stats drift: relays accounted %d forwards, conduit delivered %d",
			r.Relayed, r.Sim.Delivered))
	}
	if r.Requests != r.Sim.Attempts {
		bad = append(bad, fmt.Sprintf("stats drift: network issued %d requests, conduit saw %d attempts",
			r.Requests, r.Sim.Attempts))
	}
	if n := r.ErrClasses["unknown"]; n > 0 {
		bad = append(bad, fmt.Sprintf("%d search(es) failed outside the clean protocol errors: %v",
			n, r.UnknownErrs))
	}
	if r.Searches != r.Ops {
		bad = append(bad, fmt.Sprintf("search accounting: nodes counted %d completed searches, workload counted %d",
			r.Searches, r.Ops))
	}
	return bad
}

// String renders the chaos report: the schedule that ran, the counts and
// the invariant verdicts.
func (r *ChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schedule (%d node-level steps): ", len(r.Schedule))
	for i, s := range r.Schedule {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.String())
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "Chaos: %d searches, %d failed, %d skipped (client crashed) -> availability %.1f%%\n",
		r.Ops+r.Errors, r.Errors, r.CrashedClientOps, 100*r.Availability)
	fmt.Fprintf(&b, "conduit: %d attempts, %d delivered\n", r.Sim.Attempts, r.Sim.Delivered)
	fmt.Fprintf(&b, "faults:  drop %d  bitflip %d  truncate %d  replay %d  garbage %d  oversize %d  spike %d  crash-blocked %d  partition-blocked %d\n",
		r.Sim.Dropped, r.Sim.BitFlipped, r.Sim.Truncated, r.Sim.Replayed,
		r.Sim.Garbage, r.Sim.Oversized, r.Sim.Spiked, r.Sim.CrashBlocked, r.Sim.PartitionBlocked)
	fmt.Fprintf(&b, "defense: %d misbehavior rejections, %d blacklistings\n", r.Misbehaved, r.Blacklisted)
	writeVerdict(&b, "errors: ", r.ErrClasses, r.Check(),
		"plaintext confinement, nonce uniqueness, tamper rejection, stats consistency, clean failures")
	return b.String()
}
