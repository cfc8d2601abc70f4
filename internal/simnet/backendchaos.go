package simnet

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// BackendChaosOptions configures a backend-brownout chaos run. Unlike Chaos,
// no delivery faults fire: every failure the overlay sees is an engine
// failure, so the run isolates exactly the property the resilience layer
// must provide — a browned-out engine degrades availability gracefully and
// never gets its honest relay punished.
type BackendChaosOptions struct {
	// Seed derives the network, the brownout schedule, the per-call fault
	// streams and the workload.
	Seed int64
}

const (
	// backendChaosK is the protection level of a brownout run, fakes per
	// search; backendChaosRounds its schedule/workload rounds before the
	// recovery round. Overlay size and searches per round are the harness
	// defaults.
	backendChaosK      = 2
	backendChaosRounds = 6
	// brownoutFraction caps the fraction of simultaneously browned-out
	// backends: the acceptance scenario's 30%.
	brownoutFraction = 0.3
)

// BackendChaosReport is the outcome of a backend-brownout run: what the
// scheduled rounds measured (searchResult; Misbehaved and Blacklisted must
// stay zero there — engine failure is not relay misbehavior — and
// InjectedErrs/InjectedHangs prove the brownout actually bit) and the
// brownout headline.
type BackendChaosReport struct {
	searchResult
	// Nodes and BrownoutFraction are the overlay size and the cap on
	// simultaneously browned-out backends the run used; MaxBrowned is that
	// cap in backends.
	Nodes            int
	BrownoutFraction float64
	MaxBrowned       int

	// Availability counts only fully answered searches:
	// Ops-minus-EngineFailed over everything issued.
	Availability float64

	// RecoveryOps / RecoveryEngineFailed / RecoveryAvailability measure the
	// post-heal round: with every backend healthy again (and breaker
	// cooldowns elapsed), availability must return to 100%.
	RecoveryOps, RecoveryEngineFailed uint64
	RecoveryAvailability              float64

	// LatP50 / LatP95 are wall-clock latency percentiles over every
	// measured search, engine-failed ones included: browned-out paths must
	// fail fast, not stall the requester.
	LatP50, LatP95 time.Duration
}

// BackendChaos runs the engine-brownout experiment: every node's backend is
// a seeded Faulty engine behind the full resilience stack, a seed-derived
// schedule browns out up to brownoutFraction of the backends mid-run, and
// the concurrent workload measures what requesters experience. After the
// scheduled rounds every backend is healed and one recovery round proves
// the overlay returns to full availability.
func BackendChaos(opts BackendChaosOptions) (*BackendChaosReport, error) {
	h, err := newSearchRun(searchSpec{seed: opts.Seed, k: backendChaosK, engines: true})
	if err != nil {
		return nil, fmt.Errorf("simnet: backend chaos: %w", err)
	}
	defer h.close()

	report := &BackendChaosReport{
		Nodes:            len(h.ids),
		BrownoutFraction: brownoutFraction,
		MaxBrowned:       max(1, int(float64(len(h.ids))*brownoutFraction)),
	}
	schedule := GenBrownoutSchedule(opts.Seed, h.ids, BrownoutScheduleConfig{
		Steps:      backendChaosRounds * stepsPerRound,
		MaxBrowned: report.MaxBrowned,
	})
	res, recovery := newSearchResult(), newSearchResult()
	if err := h.run(schedule, backendChaosRounds, res); err != nil {
		return nil, fmt.Errorf("simnet: backend chaos: %w", err)
	}

	// Recovery: heal every backend, let hung calls drain and breaker
	// cooldowns elapse, then one more round must answer everything.
	for _, f := range h.faulties {
		f.SetBrownout(false)
	}
	time.Sleep(testScalePolicy.BreakerCooldown + harshBrownout.Hang + 20*time.Millisecond)
	if err := h.round(recovery); err != nil {
		return nil, fmt.Errorf("simnet: backend chaos recovery round: %w", err)
	}
	h.totals(res)

	report.searchResult = *res
	if total := res.Ops + res.ProtoErrors; total > 0 {
		report.Availability = float64(res.Ops-res.EngineFailed) / float64(total)
	}
	report.RecoveryOps = recovery.Ops + recovery.ProtoErrors
	report.RecoveryEngineFailed = recovery.EngineFailed
	if report.RecoveryOps > 0 {
		report.RecoveryAvailability = float64(report.RecoveryOps-report.RecoveryEngineFailed) / float64(report.RecoveryOps)
	}
	sort.Slice(res.latencies, func(i, j int) bool { return res.latencies[i] < res.latencies[j] })
	report.LatP50 = percentile(res.latencies, 50)
	report.LatP95 = percentile(res.latencies, 95)
	return report, nil
}

// Check verifies the brownout invariants and returns one line per violated
// property (empty means the overlay degraded gracefully).
func (r *BackendChaosReport) Check() []string {
	var bad []string
	if r.Misbehaved != 0 {
		bad = append(bad, fmt.Sprintf("%d misbehavior charge(s) during a pure engine brownout — engine failure was misclassified as relay misbehavior", r.Misbehaved))
	}
	if r.Blacklisted != 0 {
		bad = append(bad, fmt.Sprintf("%d honest relay(s) blacklisted for engine failures", r.Blacklisted))
	}
	if r.ProtoErrors != 0 {
		bad = append(bad, fmt.Sprintf("%d protocol-level failure(s) in a run with no delivery faults: %v", r.ProtoErrors, r.UnknownErrs))
	}
	if r.Availability < 0.95 {
		bad = append(bad, fmt.Sprintf("availability %.1f%% under brownout, want >= 95%%", 100*r.Availability))
	}
	if r.RecoveryAvailability < 1 {
		bad = append(bad, fmt.Sprintf("recovery availability %.1f%% after healing, want 100%%", 100*r.RecoveryAvailability))
	}
	if r.InjectedErrs+r.InjectedHangs == 0 {
		bad = append(bad, "the brownout never bit: no errors or hangs were injected")
	}
	if disturbed := r.Backend.EngineErrors + r.Backend.Timeouts + r.Backend.Shed + r.Backend.BreakerRejected; disturbed == 0 {
		bad = append(bad, "the resilience stack was never exercised: no engine errors, timeouts, sheds or breaker rejections")
	}
	if budget := 10 * testScalePolicy.Timeout; r.LatP95 > budget {
		bad = append(bad, fmt.Sprintf("p95 search latency %v under brownout, want <= %v (fail fast, don't stall)", r.LatP95, budget))
	}
	return bad
}

// String renders the backend-chaos report.
func (r *BackendChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "BackendChaos: %d searches, %d engine-failed, %d proto-failed -> availability %.1f%% (recovery %.1f%%)\n",
		r.Ops+r.ProtoErrors, r.EngineFailed, r.ProtoErrors, 100*r.Availability, 100*r.RecoveryAvailability)
	fmt.Fprintf(&b, "latency: p50 %v  p95 %v\n", r.LatP50, r.LatP95)
	fmt.Fprintf(&b, "injected: %d errors, %d hangs (<= %d backends browned at once)\n",
		r.InjectedErrs, r.InjectedHangs, r.MaxBrowned)
	fmt.Fprintf(&b, "stack:   %d calls  %d engine-errors  %d timeouts  %d shed  %d retries  %d breaker-opens  %d breaker-rejected\n",
		r.Backend.Calls, r.Backend.EngineErrors, r.Backend.Timeouts, r.Backend.Shed,
		r.Backend.Retries, r.Backend.BreakerOpens, r.Backend.BreakerRejected)
	fmt.Fprintf(&b, "overlay: %d engine-failure re-samples, %d misbehavior charges, %d blacklistings\n",
		r.EngineFailedForwards, r.Misbehaved, r.Blacklisted)
	writeVerdict(&b, "classes: ", r.ErrClasses, r.Check(),
		"no blacklisting for engine failures, graceful degradation, full recovery")
	return b.String()
}
