package core

// Telemetry instruments for the core forward path. All handles are
// resolved at package init so the hot path performs only atomic adds:
// no label formatting, no map lookups, no allocation.

import (
	"cyclosa/internal/telemetry"
)

// Forward outcome names, pre-interned so trace records never build
// strings on the hot path.
const (
	forwardOutcomeOK          = "ok"
	forwardOutcomeEngineError = "engine_error"
	forwardOutcomeSelfRelay   = "self_relay"
	forwardOutcomeUnavailable = "unavailable"
	forwardOutcomeMisbehaved  = "misbehaved"
	forwardOutcomeOversize    = "oversize"
	forwardOutcomeError       = "error"
)

var (
	forwardStageHist = telemetry.Default().HistogramVec(
		"cyclosa_core_forward_stage_seconds",
		"Latency of each forward stage: encrypt (encode+pad+seal, client), deliver (relay round trip through the conduit, client), splice (decrypt+decode+verify, client), engine (backend search call, relay).",
		"stage", telemetry.DefaultLatencyBuckets)
	stageEncrypt = forwardStageHist.With("encrypt")
	stageDeliver = forwardStageHist.With("deliver")
	stageSplice  = forwardStageHist.With("splice")
	stageEngine  = forwardStageHist.With("engine")

	forwardOutcomes = telemetry.Default().CounterVec(
		"cyclosa_core_forward_outcomes_total",
		"Forward attempts by verdict: ok, engine_error, self_relay, unavailable, misbehaved, oversize, error.",
		"outcome")
	cForwardOK          = forwardOutcomes.With(forwardOutcomeOK)
	cForwardEngineError = forwardOutcomes.With(forwardOutcomeEngineError)
	cForwardSelfRelay   = forwardOutcomes.With(forwardOutcomeSelfRelay)
	cForwardUnavailable = forwardOutcomes.With(forwardOutcomeUnavailable)
	cForwardMisbehaved  = forwardOutcomes.With(forwardOutcomeMisbehaved)
	cForwardOversize    = forwardOutcomes.With(forwardOutcomeOversize)
	cForwardError       = forwardOutcomes.With(forwardOutcomeError)

	forwardRetries = telemetry.Default().Counter(
		"cyclosa_core_forward_retries_total",
		"Replacement relays sampled by the retry layer after a failed forward attempt.")
	forwardBlacklists = telemetry.Default().Counter(
		"cyclosa_core_relay_blacklists_total",
		"Relays blacklisted by the retry layer for misbehavior or repeated unavailability.")
)
