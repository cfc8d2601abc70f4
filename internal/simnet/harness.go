package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"cyclosa/internal/backend"
	"cyclosa/internal/core"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/transport"
	"cyclosa/internal/workload"
)

// This file is the one search-under-faults loop. Chaos and BackendChaos are
// definitions over it: what to build (searchSpec), which schedule to apply,
// and which of the measured numbers make their report's headline.

// stepsPerRound is how many schedule steps fire before each workload round;
// gossipPerRound how many overlay heal rounds follow it.
const (
	stepsPerRound  = 2
	gossipPerRound = 4
)

// searchSpec says what a search-under-faults run is built from. Everything
// derives from seed: the network, the per-delivery and per-engine-call fault
// streams and the workload.
type searchSpec struct {
	seed int64
	// nodes, clients and opsPerRound default to 20, 8 and 48; client c
	// drives node c, so distinct clients never share a node's client half.
	nodes, clients, opsPerRound int
	// k is the protection level, fakes per search; 0 disables fakes, which
	// also makes a single-client run fully serial.
	k int
	// workload selects the query stream over the sentinel pool: "zipf"
	// (default), "trace" (pool replay) or "fixed" (one probe query).
	workload string
	// faults are the per-delivery fault probabilities; the zero value
	// injects nothing.
	faults FaultConfig
	// transport, when non-nil, goes under the fault-injection layer
	// (ChaosOptions.Transport).
	transport func(direct transport.Conduit) transport.Conduit
	// engines gives every node a seeded backend.Faulty engine behind the
	// testScalePolicy resilience stack, for StepBrownout to degrade; false
	// means a null engine that never fails.
	engines bool
}

// searchResult is what one search-under-faults run measured, whatever was
// injected into it. ChaosReport and BackendChaosReport embed it and add the
// headline numbers of their scenario.
type searchResult struct {
	// Ops counts searches that returned a result (an engine failure that
	// relay re-sampling could not route around still returns one, and is
	// also counted in EngineFailed); ProtoErrors those that failed with a
	// protocol error. Ops a crashed node would have issued are counted in
	// CrashedClientOps and in neither: Sim.Crash models a crashed client as
	// simply not being driven.
	Ops, ProtoErrors, CrashedClientOps uint64
	// EngineFailed counts returned searches whose result carries an engine
	// failure; ShedSurfaced the subset that was an overload shed — proof
	// that shedding fails fast all the way up to the requester as
	// ErrEngineOverloaded.
	EngineFailed, ShedSurfaced uint64

	// ErrClasses counts failed searches by protocol error class and
	// surfaced engine failures by taxonomy class; UnknownErrs samples the
	// errors outside the clean protocol classes (a non-empty list is itself
	// an invariant violation).
	ErrClasses  map[string]uint64
	UnknownErrs []string

	// Queries is the multiset of drawn workload queries, including those
	// skipped because the issuing node was crashed (determinism anchor: a
	// fixed seed must reproduce it exactly).
	Queries map[string]uint64

	// Schedule is the fault schedule that ran.
	Schedule []Step
	// Sim is the fault-injection accounting; Events the per-delivery fault
	// log (bounded), EventsOverflow the entries past the bound.
	Sim            Stats
	Events         []Event
	EventsOverflow uint64

	// Searches, Relayed, Misbehaved, Blacklisted and EngineFailedForwards
	// sum the node counters; Requests is the network's forward request
	// counter.
	Searches, Relayed, Misbehaved, Blacklisted, EngineFailedForwards uint64
	Requests                                                         uint64
	// Backend sums every node's decorator-stack counters; InjectedErrs and
	// InjectedHangs sum the engine fault injectors' draws.
	Backend                     backend.Stats
	InjectedErrs, InjectedHangs uint64

	// Violations are the continuous checkers' findings, ViolationsOverflow
	// the count past the bound; WireScans/GateScans/NonceScans prove the
	// checkers ran.
	Violations                       []string
	ViolationsOverflow               uint64
	WireScans, GateScans, NonceScans uint64

	// latencies are the wall-clock durations of the returned and failed
	// searches.
	latencies []time.Duration
}

func newSearchResult() *searchResult {
	return &searchResult{ErrClasses: make(map[string]uint64), Queries: make(map[string]uint64)}
}

// searchRun is a built run: the network under its Sim, the armed invariant
// checkers, the workload, and the engines a brownout step can reach.
type searchRun struct {
	spec searchSpec
	sim  *Sim
	inv  *Invariants
	net  *core.Network
	ids  []string
	gen  workload.Generator

	// mu guards faulties while the network is built and the result a round
	// records into while it runs.
	mu       sync.Mutex
	faulties map[string]*backend.Faulty

	// close uninstalls the process-wide invariant observers.
	close func()
}

// sentinelPool synthesizes n distinct queries, every one carrying the
// sentinel, shaped like short web queries.
func sentinelPool(n int, seed int64) []string {
	words := []string{
		"weather", "tickets", "recipe", "train", "hotel", "score", "news",
		"lyrics", "howto", "cheap", "review", "map", "symptoms", "jobs",
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5e971e1))
	pool := make([]string, n)
	for i := range pool {
		pool[i] = fmt.Sprintf("%s %s %s %d",
			words[rng.Intn(len(words))], Sentinel, words[rng.Intn(len(words))], i)
	}
	return pool
}

// zipfPool is a workload.Generator drawing from a fixed pool with
// Zipf-distributed popularity (heavy-tailed, like web search).
type zipfPool struct {
	pool []string
	seed int64
}

func (g *zipfPool) Stream(client, _ int) workload.Stream {
	rng := rand.New(rand.NewSource(g.seed + 31 + int64(client)*7919))
	z := rand.NewZipf(rng, 1.2, 1, uint64(len(g.pool)-1))
	return streamFunc(func() string { return g.pool[z.Uint64()] })
}

type streamFunc func() string

func (f streamFunc) Next() string { return f() }

// alwaysSensitive forces k = kmax on every query.
type alwaysSensitive struct{}

func (alwaysSensitive) IsSensitive([]string) bool { return true }

// testScalePolicy is the stack policy of engine-fault runs: small enough
// that a browned-out relay fails fast and the whole soak stays sub-second.
var testScalePolicy = backend.Policy{
	Timeout:           25 * time.Millisecond,
	MaxRetries:        1,
	RetryBackoff:      time.Millisecond,
	RetryBudget:       0.2,
	BreakerThreshold:  0.5,
	BreakerWindow:     400 * time.Millisecond,
	BreakerMinSamples: 8,
	BreakerCooldown:   50 * time.Millisecond,
	MaxInFlight:       4,
}

// harshBrownout is the degraded-engine profile of a browned-out backend:
// most calls error, a fifth hang well past the stack's timeout (so hangs
// surface as watchdog timeouts and gate sheds), and the survivors answer
// slowly.
var harshBrownout = backend.BrownoutProfile{
	ErrorRate: 0.85,
	Latency:   2 * time.Millisecond,
	HangRate:  0.2,
	Hang:      60 * time.Millisecond,
}

// newSearchRun builds the run: the invariant checkers installed, a Sim over
// the network's conduit, every node's table bootstrapped from the sentinel
// pool (so every fake a table can produce is trackable by the plaintext
// guard) and the workload generator chosen. The caller must call close.
func newSearchRun(spec searchSpec) (*searchRun, error) {
	if spec.nodes == 0 {
		spec.nodes = 20
	}
	if spec.nodes < 4 {
		return nil, fmt.Errorf("need >= 4 nodes, got %d", spec.nodes)
	}
	if spec.clients <= 0 {
		spec.clients = 8
	}
	spec.clients = min(spec.clients, spec.nodes)
	if spec.opsPerRound <= 0 {
		spec.opsPerRound = 48
	}

	h := &searchRun{spec: spec, inv: NewInvariants(Sentinel), faulties: map[string]*backend.Faulty{}}
	pool := sentinelPool(256, spec.seed)
	switch spec.workload {
	case "", "zipf":
		h.gen = &zipfPool{pool: pool, seed: spec.seed}
	case "trace":
		h.gen = workload.ReplayQueries(pool)
	case "fixed":
		h.gen = workload.Fixed(pool[0])
	default:
		return nil, fmt.Errorf("unknown workload %q (want zipf|trace|fixed)", spec.workload)
	}

	h.close = h.inv.Install()
	h.sim = New(Config{Seed: spec.seed, Faults: spec.faults, Invariants: h.inv})
	opts := core.NetworkOptions{
		Nodes:        spec.nodes,
		Seed:         spec.seed,
		LatencyModel: transport.TestbedModel(spec.seed),
		Conduit:      h.sim.Wrap,
	}
	if spec.transport != nil {
		opts.Conduit = func(direct transport.Conduit) transport.Conduit {
			return h.sim.Wrap(spec.transport(direct))
		}
	}
	if spec.k > 0 {
		opts.AnalyzerFor = func(string) *sensitivity.Analyzer {
			return sensitivity.NewAnalyzer(alwaysSensitive{}, nil, spec.k)
		}
	}
	if spec.engines {
		opts.BackendFor = func(id string) core.Backend {
			h.mu.Lock()
			defer h.mu.Unlock()
			// The n-th engine built gets the n-th fault stream.
			f := backend.NewFaulty(backend.FaultyConfig{
				Seed:     spec.seed ^ int64(len(h.faulties))<<17,
				Brownout: harshBrownout,
			})
			h.faulties[id] = f
			return backend.NewStack(f, testScalePolicy)
		}
	} else {
		opts.Backend = core.NullBackend{}
	}
	net, err := core.NewNetwork(opts)
	if err != nil {
		h.close()
		return nil, fmt.Errorf("network: %w", err)
	}
	h.net, h.ids = net, net.NodeIDs()
	for i, id := range h.ids {
		net.Node(id).BootstrapTable(pool[(i*8)%128 : (i*8)%128+16])
	}
	return h, nil
}

// apply executes one schedule step: node and link steps on the Sim, engine
// steps on the node's fault injector (a no-op in a run built without
// engines).
func (h *searchRun) apply(step Step) {
	switch step.Kind {
	case StepCrash:
		h.sim.Crash(step.A)
	case StepRestart:
		h.sim.Restart(step.A)
	case StepPartition:
		h.sim.Partition(step.A, step.B)
	case StepHeal:
		h.sim.Heal(step.A, step.B)
	case StepBrownout, StepBrownoutHeal:
		if f := h.faulties[step.A]; f != nil {
			f.SetBrownout(step.Kind == StepBrownout)
		}
	}
}

// run drives the scheduled rounds into res: stepsPerRound schedule steps,
// one workload round, gossipPerRound overlay heal rounds.
func (h *searchRun) run(schedule []Step, rounds int, res *searchResult) error {
	res.Schedule = schedule
	for round, step := 0, 0; round < rounds; round++ {
		for i := 0; i < stepsPerRound && step < len(schedule); i++ {
			h.apply(schedule[step])
			step++
		}
		if err := h.round(res); err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		h.net.Gossip(gossipPerRound)
	}
	return nil
}

// searchTime is the protocol clock every search of a run carries.
var searchTime = time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)

// round runs one workload round and classifies every search's outcome into
// res.
func (h *searchRun) round(res *searchResult) error {
	op := func(client, _ int, query string) error {
		id := h.ids[client%len(h.ids)]
		if h.sim.Crashed(id) {
			// The node must not originate searches while down. The query
			// still counts toward the determinism anchor — the crash set is
			// fixed within a round, so the skip replays with the seed.
			h.mu.Lock()
			res.Queries[query]++
			res.CrashedClientOps++
			h.mu.Unlock()
			return nil
		}
		start := time.Now()
		sr, err := h.net.Node(id).Search(query, searchTime)
		wall := time.Since(start)

		h.mu.Lock()
		defer h.mu.Unlock()
		res.Queries[query]++
		res.latencies = append(res.latencies, wall)
		if err != nil {
			res.ProtoErrors++
			switch {
			case errors.Is(err, core.ErrRelayFailed):
				res.ErrClasses["relay-failed"]++
			case errors.Is(err, core.ErrNoPeers):
				res.ErrClasses["no-peers"]++
			default:
				res.ErrClasses["unknown"]++
				if len(res.UnknownErrs) < 8 {
					res.UnknownErrs = append(res.UnknownErrs, err.Error())
				}
			}
			return err
		}
		res.Ops++
		if sr.EngineError != nil {
			res.EngineFailed++
			switch {
			case errors.Is(sr.EngineError, backend.ErrEngineOverloaded):
				res.ErrClasses["engine-overloaded"]++
				res.ShedSurfaced++
			case errors.Is(sr.EngineError, backend.ErrEngineTimeout):
				res.ErrClasses["engine-timeout"]++
			case errors.Is(sr.EngineError, backend.ErrEngineUnavailable):
				res.ErrClasses["engine-unavailable"]++
			default:
				res.ErrClasses["engine-other"]++
			}
		}
		return nil
	}
	_, err := workload.Run(op, workload.Options{
		Clients:   h.spec.clients,
		Ops:       h.spec.opsPerRound,
		Generator: h.gen,
	})
	return err
}

// totals folds the end-of-run counters into res: the Sim's accounting, the
// node, stack and injector sums and the checkers' findings.
func (h *searchRun) totals(res *searchResult) {
	res.Sim = h.sim.Stats()
	res.Events, res.EventsOverflow = h.sim.Events()
	res.Requests = h.net.RequestCount()
	for _, id := range h.ids {
		node := h.net.Node(id)
		st := node.Stats()
		res.Searches += st.Searches
		res.Relayed += st.Relayed
		res.Misbehaved += st.Misbehaved
		res.Blacklisted += st.Blacklisted
		res.EngineFailedForwards += st.EngineFailed
		if bs, ok := node.BackendStats(); ok {
			res.Backend.Calls += bs.Calls
			res.Backend.Successes += bs.Successes
			res.Backend.EngineErrors += bs.EngineErrors
			res.Backend.Shed += bs.Shed
			res.Backend.Retries += bs.Retries
			res.Backend.Timeouts += bs.Timeouts
			res.Backend.BreakerOpens += bs.BreakerOpens
			res.Backend.BreakerRejected += bs.BreakerRejected
			res.Backend.BreakerOpenNanos += bs.BreakerOpenNanos
		}
		if f := h.faulties[id]; f != nil {
			errs, hangs := f.Injected()
			res.InjectedErrs += errs
			res.InjectedHangs += hangs
		}
	}
	res.Violations, res.ViolationsOverflow = h.inv.Violations()
	res.WireScans, res.GateScans, res.NonceScans = h.inv.Scans()
}

// checkCheckers is the part of every run's verdict the continuous checkers
// own: they ran, and they recorded nothing.
func (r *searchResult) checkCheckers() []string {
	var bad []string
	if len(r.Violations) > 0 || r.ViolationsOverflow > 0 {
		bad = append(bad, fmt.Sprintf("continuous checkers recorded %d violation(s): %s",
			uint64(len(r.Violations))+r.ViolationsOverflow, strings.Join(r.Violations, "; ")))
	}
	if r.WireScans == 0 || r.GateScans == 0 || r.NonceScans == 0 {
		bad = append(bad, fmt.Sprintf("a checker never ran (wire=%d gate=%d nonce=%d scans)",
			r.WireScans, r.GateScans, r.NonceScans))
	}
	return bad
}

// writeVerdict is the tail of a report: the error classes, then either the
// violated invariants or the line naming the ones that held.
func writeVerdict(b *strings.Builder, label string, classes map[string]uint64, bad []string, held string) {
	if len(classes) > 0 {
		names := make([]string, 0, len(classes))
		for c := range classes {
			names = append(names, c)
		}
		sort.Strings(names)
		b.WriteString(label)
		for i, c := range names {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%s=%d", c, classes[c])
		}
		b.WriteByte('\n')
	}
	if len(bad) > 0 {
		b.WriteString("INVARIANT VIOLATIONS:\n")
		for _, v := range bad {
			fmt.Fprintf(b, "  FAIL %s\n", v)
		}
	} else {
		fmt.Fprintf(b, "invariants: all held (%s)\n", held)
	}
}
