package eval

import (
	"fmt"
	"time"

	"cyclosa/internal/simnet"
)

// BackendBenchOptions configures the engine-brownout benchmark behind
// cyclosa-bench's -exp backend: availability and tail latency while up to
// 30% of the overlay's backends are browned out, tracked PR over PR in
// BENCH_backend.json.
type BackendBenchOptions struct {
	// Seed derives the run.
	Seed int64
}

// BackendBenchResult is one measurement of the resilient backend layer.
type BackendBenchResult struct {
	// Benchmark names the measured subsystem.
	Benchmark string `json:"benchmark"`
	// Nodes and BrownoutFraction are the overlay size and the cap on
	// simultaneously browned backends the run used.
	Nodes            int     `json:"nodes"`
	BrownoutFraction float64 `json:"brownout_fraction"`
	// Searches / EngineFailed are the measured workload totals.
	Searches     uint64 `json:"searches"`
	EngineFailed uint64 `json:"engine_failed"`
	// Availability is the fraction of searches fully answered under
	// brownout; RecoveryAvailability the same after healing (must be 1.0).
	Availability         float64 `json:"availability"`
	RecoveryAvailability float64 `json:"recovery_availability"`
	// P50Ms / P95Ms are wall-clock search latencies under brownout in
	// milliseconds — the degrade-gracefully headline numbers.
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	// Shed / Retries / Timeouts / BreakerOpens / BreakerRejected sum the
	// decorator stacks across the overlay.
	Shed            uint64 `json:"shed"`
	Retries         uint64 `json:"retries"`
	Timeouts        uint64 `json:"timeouts"`
	BreakerOpens    uint64 `json:"breaker_opens"`
	BreakerRejected uint64 `json:"breaker_rejected"`
	// InjectedErrors / InjectedHangs prove the brownout actually bit.
	InjectedErrors uint64 `json:"injected_errors"`
	InjectedHangs  uint64 `json:"injected_hangs"`
	// Misbehaved / Blacklisted must be 0: engine failure is not relay
	// misbehavior, measured.
	Misbehaved  uint64 `json:"misbehaved"`
	Blacklisted uint64 `json:"blacklisted"`
	// Findings are the run's invariant violations (empty on a clean run).
	Findings []string `json:"violations,omitempty"`
	Stamp
}

// BackendBenchHistoryEntry is one prior BENCH_backend measurement, carried
// forward so the file tracks availability across runs.
type BackendBenchHistoryEntry struct {
	GeneratedAt          string  `json:"generated_at"`
	Availability         float64 `json:"availability"`
	RecoveryAvailability float64 `json:"recovery_availability"`
	P95Ms                float64 `json:"p95_ms"`
}

// RunBackendBench runs the backend-brownout chaos experiment and folds its
// report into the benchmark record.
func RunBackendBench(opts BackendBenchOptions) (*BackendBenchResult, error) {
	r, err := simnet.BackendChaos(simnet.BackendChaosOptions{Seed: opts.Seed})
	if err != nil {
		return nil, fmt.Errorf("backend chaos: %w", err)
	}
	return &BackendBenchResult{
		Benchmark:            "Resilient backend layer under engine brownout",
		Nodes:                r.Nodes,
		BrownoutFraction:     r.BrownoutFraction,
		Searches:             r.Ops + r.ProtoErrors,
		EngineFailed:         r.EngineFailed,
		Availability:         r.Availability,
		RecoveryAvailability: r.RecoveryAvailability,
		P50Ms:                float64(r.LatP50) / float64(time.Millisecond),
		P95Ms:                float64(r.LatP95) / float64(time.Millisecond),
		Shed:                 r.Backend.Shed,
		Retries:              r.Backend.Retries,
		Timeouts:             r.Backend.Timeouts,
		BreakerOpens:         r.Backend.BreakerOpens,
		BreakerRejected:      r.Backend.BreakerRejected,
		InjectedErrors:       r.InjectedErrs,
		InjectedHangs:        r.InjectedHangs,
		Misbehaved:           r.Misbehaved,
		Blacklisted:          r.Blacklisted,
		Findings:             r.Check(),
	}, nil
}

// Violations lists the brownout invariants the run broke (non-zero exit for
// cyclosa-bench).
func (r *BackendBenchResult) Violations() []string { return r.Findings }

// Summary is the history entry this run leaves behind.
func (r *BackendBenchResult) Summary() any {
	return BackendBenchHistoryEntry{
		GeneratedAt:          r.GeneratedAt,
		Availability:         r.Availability,
		RecoveryAvailability: r.RecoveryAvailability,
		P95Ms:                r.P95Ms,
	}
}

// String renders the result for the terminal.
func (r *BackendBenchResult) String() string {
	s := fmt.Sprintf(
		"Backend brownout (%s):\n  %d nodes, <= %.0f%% browned: %d searches, %d engine-failed -> availability %.1f%% (recovery %.0f%%)\n  latency p50 %.2fms p95 %.2fms\n  stack: %d shed, %d retries, %d timeouts, %d breaker opens, %d breaker rejections\n  injected: %d errors, %d hangs; %d misbehavior charges, %d blacklistings",
		r.Benchmark, r.Nodes, 100*r.BrownoutFraction, r.Searches, r.EngineFailed,
		100*r.Availability, 100*r.RecoveryAvailability, r.P50Ms, r.P95Ms,
		r.Shed, r.Retries, r.Timeouts, r.BreakerOpens, r.BreakerRejected,
		r.InjectedErrors, r.InjectedHangs, r.Misbehaved, r.Blacklisted)
	for _, v := range r.Findings {
		s += "\n  FAIL " + v
	}
	return s
}
