package simnet

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/transport"
)

// FaultConfig holds the per-delivery fault probabilities, each in [0, 1].
// At most one fault fires per delivery; the draw is a pure function of
// (seed, client, relay, per-pair delivery index), so a given delivery gets
// the same fault in every run. The zero value injects nothing and keeps the
// seam allocation-free.
type FaultConfig struct {
	// Drop loses the request record: the relay never sees it and the sender
	// observes unavailability.
	Drop float64
	// BitFlip inverts one ciphertext bit in flight.
	BitFlip float64
	// Truncate cuts the record short.
	Truncate float64
	// Replay delivers the previously captured record of the pair instead of
	// the fresh one (no fault fires on a pair's first delivery).
	Replay float64
	// Garbage makes the relay Byzantine for this delivery: the response is
	// fabricated bytes, half the time of plausible record length, half the
	// time an oversized page of OversizeLen bytes.
	Garbage float64
	// Spike charges SpikeLatency of extra link latency (no failure).
	Spike float64
	// SpikeLatency is the injected spike (default 2 s).
	SpikeLatency time.Duration
	// OversizeLen is the oversized garbage response length (default 256 KiB).
	OversizeLen int
}

func (c *FaultConfig) applyDefaults() {
	if c.SpikeLatency == 0 {
		c.SpikeLatency = 2 * time.Second
	}
	if c.OversizeLen == 0 {
		c.OversizeLen = 256 << 10
	}
	// Clamp each probability to [0, 1]: values outside it (an aggressive
	// -chaos-intensity multiplier, a typo) must skew toward "always fires",
	// never through implementation-defined float conversions.
	for _, p := range c.probabilities() {
		if *p < 0 || *p != *p { // negative or NaN
			*p = 0
		} else if *p > 1 {
			*p = 1
		}
	}
}

// probabilities lists the six fault probabilities in catalog order.
func (c *FaultConfig) probabilities() []*float64 {
	return []*float64{&c.Drop, &c.BitFlip, &c.Truncate, &c.Replay, &c.Garbage, &c.Spike}
}

// Scaled returns the mix with every probability multiplied by intensity
// (cyclosa-bench's -chaos-intensity): 0 disables the stochastic faults and
// leaves only the node-level schedule.
func (c FaultConfig) Scaled(intensity float64) FaultConfig {
	for _, p := range c.probabilities() {
		*p *= intensity
	}
	return c
}

// active reports whether any per-delivery fault can fire.
func (c *FaultConfig) active() bool {
	return c.Drop > 0 || c.BitFlip > 0 || c.Truncate > 0 || c.Replay > 0 ||
		c.Garbage > 0 || c.Spike > 0
}

// FaultKind names an injected fault in stats and the event log.
type FaultKind uint8

// Fault kinds.
const (
	FaultNone FaultKind = iota
	FaultDrop
	FaultBitFlip
	FaultTruncate
	FaultReplay
	FaultGarbage
	FaultOversize
	FaultSpike
	FaultCrashBlocked
	FaultPartitionBlocked
	FaultWANLost
)

var faultNames = [...]string{
	FaultNone:             "none",
	FaultDrop:             "drop",
	FaultBitFlip:          "bitflip",
	FaultTruncate:         "truncate",
	FaultReplay:           "replay",
	FaultGarbage:          "garbage",
	FaultOversize:         "oversize",
	FaultSpike:            "spike",
	FaultCrashBlocked:     "crash-blocked",
	FaultPartitionBlocked: "partition-blocked",
	FaultWANLost:          "wan-lost",
}

// String names the fault kind.
func (k FaultKind) String() string {
	if int(k) < len(faultNames) {
		return faultNames[k]
	}
	return fmt.Sprintf("fault(%d)", k)
}

// Event is one injected fault, as recorded in the event log.
type Event struct {
	// Kind is the injected fault.
	Kind FaultKind
	// From and To are the delivery's endpoints.
	From, To string
	// PairIndex is the delivery's index within the (From, To) pair stream —
	// together with the seed it pins the fault draw exactly.
	PairIndex uint64
}

// String renders the event as one replayable line.
func (e Event) String() string {
	return fmt.Sprintf("%s %s->%s #%d", e.Kind, e.From, e.To, e.PairIndex)
}

// Stats counts a Sim's activity. Attempts is every Deliver call; Delivered
// is the subset handed to the inner conduit (and therefore seen by a
// relay); the remainder was blocked or dropped.
type Stats struct {
	Attempts  uint64
	Delivered uint64

	Dropped          uint64
	BitFlipped       uint64
	Truncated        uint64
	Replayed         uint64
	Garbage          uint64
	Oversized        uint64
	Spiked           uint64
	CrashBlocked     uint64
	PartitionBlocked uint64
	WANLost          uint64
}

// ContentFaults is the number of deliveries whose bytes were forged in some
// way (tampered, replayed or fabricated) — each must surface at the issuing
// client as exactly one rejected (misbehaved) forward.
func (s Stats) ContentFaults() uint64 {
	return s.BitFlipped + s.Truncated + s.Replayed + s.Garbage + s.Oversized
}

// Config configures a Sim.
type Config struct {
	// Seed drives every fault draw and the garbage generator.
	Seed int64
	// Faults are the per-delivery fault probabilities.
	Faults FaultConfig
	// Invariants, when non-nil, is consulted on every delivery (wire
	// scanning); install its observers separately via Install.
	Invariants *Invariants
	// EventLogSize bounds the fault event log (default 4096; 0 keeps the
	// default, negative disables the log).
	EventLogSize int
	// WAN, when non-nil, layers the planet-scale latency/loss matrix over
	// every delivery: each delivery pays a region-dependent round trip as
	// injected latency (heavy-tailed jitter included), and lost deliveries
	// surface as relay unavailability, drawn from the matrix's own seeded
	// stream keyed by the pair's delivery index. Nil keeps the uniform
	// zero-latency network and the allocation-free fast path.
	WAN *transport.WANMatrix
}

// Sim is the fault-injecting conduit. Wire it into a network with
//
//	sim := simnet.New(simnet.Config{Seed: 1, Faults: ...})
//	net, err := core.NewNetwork(core.NetworkOptions{..., Conduit: sim.Wrap})
//
// All methods are safe for concurrent use. One Sim serves one network.
type Sim struct {
	seed   uint64
	faults FaultConfig
	inv    *Invariants
	wan    *transport.WANMatrix

	// cut are the cumulative fault thresholds out of 2^32 (the fault draw's
	// low word is compared against them in catalog order).
	cut [6]uint64

	inner transport.Conduit

	// liveMu guards the dynamic failure state (crash set, partition set).
	liveMu    sync.RWMutex
	crashed   map[string]struct{}
	partition map[[2]string]struct{}

	// pairMu guards the per-pair fault stream states.
	pairMu sync.RWMutex
	pairs  map[[2]string]*pairStream

	attempts  atomic.Uint64
	delivered atomic.Uint64
	counts    [FaultWANLost + 1]atomic.Uint64

	logMu   sync.Mutex
	logCap  int
	events  []Event
	dropped uint64 // events not logged because the log was full
}

// pairStream is the per-(from, to) fault stream state: the delivery index
// that keys the fault draw, and the capture buffer feeding replays. Its
// mutex is effectively uncontended — the protocol serializes a pair's
// exchanges — but pathological callers must not corrupt it.
type pairStream struct {
	mu      sync.Mutex
	n       uint64
	lastReq []byte
}

// New builds a Sim. Wire it to a network with Wrap.
func New(cfg Config) *Sim {
	cfg.Faults.applyDefaults()
	s := &Sim{
		seed:      uint64(cfg.Seed),
		faults:    cfg.Faults,
		inv:       cfg.Invariants,
		wan:       cfg.WAN,
		crashed:   make(map[string]struct{}),
		partition: make(map[[2]string]struct{}),
		pairs:     make(map[[2]string]*pairStream),
		logCap:    cfg.EventLogSize,
	}
	if s.logCap == 0 {
		s.logCap = 4096
	}
	// Cumulative thresholds over the 32-bit draw, catalog order. A mix
	// summing past 1 saturates: earlier catalog entries win (every delivery
	// faults), rather than later entries silently vanishing behind an
	// overflowed threshold.
	acc := 0.0
	for i, p := range s.faults.probabilities() {
		acc += *p
		if acc > 1 {
			acc = 1
		}
		s.cut[i] = uint64(acc * (1 << 32))
	}
	return s
}

// Wrap installs the Sim over the network's direct conduit; pass it as
// core.NetworkOptions.Conduit.
func (s *Sim) Wrap(inner transport.Conduit) transport.Conduit {
	s.inner = inner
	return s
}

// Crash makes a node unreachable: every delivery to it fails until Restart.
// Deliveries from it still flow — a crashed *client* is modelled by the
// driver simply not driving it.
func (s *Sim) Crash(id string) {
	s.liveMu.Lock()
	s.crashed[id] = struct{}{}
	s.liveMu.Unlock()
}

// Restart brings a crashed node back.
func (s *Sim) Restart(id string) {
	s.liveMu.Lock()
	delete(s.crashed, id)
	s.liveMu.Unlock()
}

// Crashed reports whether the node is currently crashed.
func (s *Sim) Crashed(id string) bool {
	s.liveMu.RLock()
	_, down := s.crashed[id]
	s.liveMu.RUnlock()
	return down
}

// Partition blocks deliveries from -> to (asymmetric: the reverse direction
// is unaffected unless partitioned separately).
func (s *Sim) Partition(from, to string) {
	s.liveMu.Lock()
	s.partition[[2]string{from, to}] = struct{}{}
	s.liveMu.Unlock()
}

// Heal unblocks the from -> to direction.
func (s *Sim) Heal(from, to string) {
	s.liveMu.Lock()
	delete(s.partition, [2]string{from, to})
	s.liveMu.Unlock()
}

// Stats snapshots the counters.
func (s *Sim) Stats() Stats {
	return Stats{
		Attempts:         s.attempts.Load(),
		Delivered:        s.delivered.Load(),
		Dropped:          s.counts[FaultDrop].Load(),
		BitFlipped:       s.counts[FaultBitFlip].Load(),
		Truncated:        s.counts[FaultTruncate].Load(),
		Replayed:         s.counts[FaultReplay].Load(),
		Garbage:          s.counts[FaultGarbage].Load(),
		Oversized:        s.counts[FaultOversize].Load(),
		Spiked:           s.counts[FaultSpike].Load(),
		CrashBlocked:     s.counts[FaultCrashBlocked].Load(),
		PartitionBlocked: s.counts[FaultPartitionBlocked].Load(),
		WANLost:          s.counts[FaultWANLost].Load(),
	}
}

// Events returns a copy of the fault event log and the number of events
// that overflowed it.
func (s *Sim) Events() ([]Event, uint64) {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out, s.dropped
}

// record counts a fault and appends it to the event log.
func (s *Sim) record(kind FaultKind, from, to string, pairIndex uint64) {
	s.counts[kind].Add(1)
	if s.logCap < 0 {
		return
	}
	s.logMu.Lock()
	if len(s.events) < s.logCap {
		s.events = append(s.events, Event{Kind: kind, From: from, To: to, PairIndex: pairIndex})
	} else {
		s.dropped++
	}
	s.logMu.Unlock()
}

// Deliver implements transport.Conduit: it consults the failure state and
// the pair's fault stream, then forwards (possibly mutated) to the inner
// conduit. With no faults configured and no crash/partition state it adds
// two atomic increments and two read-locked map probes to the hot path —
// and zero allocations.
func (s *Sim) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	s.attempts.Add(1)
	if s.inv != nil {
		s.inv.checkWire(from, to, payload)
	}

	s.liveMu.RLock()
	_, down := s.crashed[to]
	_, blocked := s.partition[[2]string{from, to}]
	s.liveMu.RUnlock()
	if down {
		s.record(FaultCrashBlocked, from, to, 0)
		return nil, 0, fmt.Errorf("%w: simnet: relay %s crashed", core.ErrRelayUnavailable, to)
	}
	if blocked {
		s.record(FaultPartitionBlocked, from, to, 0)
		return nil, 0, fmt.Errorf("%w: simnet: %s->%s partitioned", core.ErrRelayUnavailable, from, to)
	}

	if s.wan == nil && !s.faults.active() {
		resp, injected, err := s.inner.Deliver(from, to, payload, now)
		s.delivered.Add(1)
		if s.inv != nil && err == nil {
			s.inv.checkWire(from, to, resp)
		}
		return resp, injected, err
	}
	return s.deliverFaulty(from, to, payload, now)
}

// deliverFaulty is the slow path: consult the WAN matrix, then draw the
// pair's next fault and apply it. With WAN nil the fault stream is
// byte-identical to the pre-WAN Sim: the same pair indices key the same
// draws.
func (s *Sim) deliverFaulty(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	ps := s.pair(from, to)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	idx := ps.n
	ps.n++

	// The WAN draw precedes the fault draw and uses the matrix's own seeded
	// stream, so enabling WAN never perturbs the fault streams and a lost
	// delivery consumes the pair index like any other.
	var wanRTT time.Duration
	if s.wan != nil {
		if s.wan.Lose(from, to, idx) {
			s.record(FaultWANLost, from, to, idx)
			return nil, 0, fmt.Errorf("%w: simnet: wan lost %s->%s #%d (%s->%s)",
				core.ErrRelayUnavailable, from, to, idx,
				s.wan.RegionName(from), s.wan.RegionName(to))
		}
		wanRTT = s.wan.RTT(from, to, idx)
	}

	draw := mix(s.seed, pairHash(from, to), idx)
	kind := s.pick(draw)
	if kind == FaultReplay && ps.lastReq == nil {
		kind = FaultNone // nothing captured yet: a pair's first delivery cannot replay
	}

	// Capture the pristine request for future replays, before any mutation.
	if s.faults.Replay > 0 && kind != FaultReplay {
		ps.lastReq = append(ps.lastReq[:0], payload...)
	}

	injected := wanRTT
	switch kind {
	case FaultDrop:
		s.record(FaultDrop, from, to, idx)
		return nil, 0, fmt.Errorf("%w: simnet: record %s->%s #%d dropped", core.ErrRelayUnavailable, from, to, idx)
	case FaultBitFlip:
		if len(payload) > 0 {
			s.record(FaultBitFlip, from, to, idx)
			bit := mix(s.seed, pairHash(from, to)^0xb17f11b, idx) % uint64(len(payload)*8)
			payload[bit/8] ^= 1 << (bit % 8)
		}
	case FaultTruncate:
		if len(payload) > 0 {
			s.record(FaultTruncate, from, to, idx)
			cut := mix(s.seed, pairHash(from, to)^0x7c47c47, idx) % uint64(len(payload))
			payload = payload[:cut]
		}
	case FaultReplay:
		s.record(FaultReplay, from, to, idx)
		payload = ps.lastReq
	case FaultSpike:
		s.record(FaultSpike, from, to, idx)
		injected += s.faults.SpikeLatency
	}

	resp, d, err := s.inner.Deliver(from, to, payload, now)
	s.delivered.Add(1)
	injected += d

	if kind == FaultGarbage && err == nil {
		// Byzantine relay: discard the honest response and fabricate one.
		size := len(resp)
		if size == 0 {
			size = 64
		}
		gkind := FaultGarbage
		if mix(s.seed, pairHash(from, to)^0x9a4ba9e, idx)&1 == 0 {
			gkind = FaultOversize
			size = s.faults.OversizeLen
		}
		s.record(gkind, from, to, idx)
		resp = garbageBytes(size, mix(s.seed, pairHash(from, to)^0x6a4b4a6e, idx))
	}
	if s.inv != nil && err == nil {
		s.inv.checkWire(from, to, resp)
	}
	return resp, injected, err
}

// pick maps the low 32 bits of a draw onto the fault catalog.
func (s *Sim) pick(draw uint64) FaultKind {
	r := draw & 0xFFFFFFFF
	switch {
	case r < s.cut[0]:
		return FaultDrop
	case r < s.cut[1]:
		return FaultBitFlip
	case r < s.cut[2]:
		return FaultTruncate
	case r < s.cut[3]:
		return FaultReplay
	case r < s.cut[4]:
		return FaultGarbage
	case r < s.cut[5]:
		return FaultSpike
	}
	return FaultNone
}

// pair returns (creating on first use) the fault stream of (from, to).
func (s *Sim) pair(from, to string) *pairStream {
	key := [2]string{from, to}
	s.pairMu.RLock()
	ps, ok := s.pairs[key]
	s.pairMu.RUnlock()
	if ok {
		return ps
	}
	s.pairMu.Lock()
	defer s.pairMu.Unlock()
	if ps, ok = s.pairs[key]; !ok {
		ps = &pairStream{}
		s.pairs[key] = ps
	}
	return ps
}

// pairHash is a deterministic (FNV-1a) hash of the ordered pair — unlike
// maphash it is stable across processes, which is what makes fault streams
// replayable.
func pairHash(from, to string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(from); i++ {
		h ^= uint64(from[i])
		h *= 1099511628211
	}
	h ^= 0xff
	h *= 1099511628211
	for i := 0; i < len(to); i++ {
		h ^= uint64(to[i])
		h *= 1099511628211
	}
	return h
}

// mix is the splitmix64 finalizer over (seed, stream, index): the fault
// draw's only entropy source.
func mix(seed, stream, idx uint64) uint64 {
	x := seed ^ stream ^ (idx+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// garbageBytes fabricates size deterministic pseudo-random bytes.
func garbageBytes(size int, seed uint64) []byte {
	out := make([]byte, size)
	x := seed
	for i := 0; i < size; i += 8 {
		x = mix(x, 0x5ca1ab1e, uint64(i))
		for j := 0; j < 8 && i+j < size; j++ {
			out[i+j] = byte(x >> (8 * j))
		}
	}
	return out
}
