package transport

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// LinkClass identifies a class of network link with its own latency
// distribution.
type LinkClass int

// Link classes used by the evaluation.
const (
	// LinkLAN is a same-site hop (testbed interconnect).
	LinkLAN LinkClass = iota + 1
	// LinkWAN is a wide-area hop between residential peers.
	LinkWAN
	// LinkTorHop is one hop through the TOR overlay (circuit relay,
	// including its queueing delays).
	LinkTorHop
	// LinkEngineRTT is the round trip to the search engine including its
	// processing time.
	LinkEngineRTT
)

// LogNormal parameterizes a log-normal latency distribution by its median
// and the σ of the underlying normal.
type LogNormal struct {
	Median time.Duration
	Sigma  float64
}

// Sample draws one latency.
func (l LogNormal) Sample(rng *rand.Rand) time.Duration {
	return l.draw().sample(rng)
}

// draw is the distribution with its log-median computed once.
func (l LogNormal) draw() logNormal {
	if l.Median <= 0 {
		return logNormal{}
	}
	return logNormal{mu: math.Log(float64(l.Median)), sigma: l.Sigma, ok: true}
}

// logNormal is a LogNormal ready to sample: mu is the log of its median. The
// zero value is a link with no latency, which draws nothing.
type logNormal struct {
	mu, sigma float64
	ok        bool
}

func (l logNormal) sample(rng *rand.Rand) time.Duration {
	if !l.ok {
		return 0
	}
	return time.Duration(math.Exp(l.mu + l.sigma*rng.NormFloat64()))
}

// Model samples latencies per link class. It is safe for concurrent use.
type Model struct {
	mu    sync.Mutex
	rng   *rand.Rand
	links map[LinkClass]logNormal
	// wan and engine are links[LinkWAN] and links[LinkEngineRTT], the two
	// classes of a relayed search.
	wan, engine logNormal
	// processing is the fixed per-message relay processing cost (enclave
	// transition + crypto).
	processing time.Duration
}

// DefaultModel returns the latency model calibrated to the paper's testbed:
//
//	LAN hop           median 0.5 ms, σ 0.3
//	WAN hop           median 150 ms, σ 0.45
//	TOR hop           median 10 s,  σ 0.55  (queueing-dominated)
//	engine round trip median 550 ms, σ 0.35
//	relay processing  2 ms fixed
//
// With these parameters a direct search lands near Fig 8a's 0.577 s median,
// CYCLOSA's one-relay detour near 0.876 s, and a 6-hop TOR circuit near the
// measured 62 s median.
func DefaultModel(seed int64) *Model {
	return NewModel(seed, map[LinkClass]LogNormal{
		LinkLAN:       {Median: 500 * time.Microsecond, Sigma: 0.3},
		LinkWAN:       {Median: 150 * time.Millisecond, Sigma: 0.45},
		LinkTorHop:    {Median: 10 * time.Second, Sigma: 0.55},
		LinkEngineRTT: {Median: 550 * time.Millisecond, Sigma: 0.35},
	}, 2*time.Millisecond)
}

// TestbedModel returns the latency model of the paper's measurement setup:
// physical machines in one cluster (client–relay hops are LAN-scale) with a
// real search engine and the public TOR network. Fig 8a/8b were measured on
// this topology — the CYCLOSA-vs-direct latency delta there comes from the
// client's per-request dispatch cost, not from peer WAN distance.
func TestbedModel(seed int64) *Model {
	return NewModel(seed, map[LinkClass]LogNormal{
		LinkLAN:       {Median: 500 * time.Microsecond, Sigma: 0.3},
		LinkWAN:       {Median: 2 * time.Millisecond, Sigma: 0.4},
		LinkTorHop:    {Median: 10 * time.Second, Sigma: 0.55},
		LinkEngineRTT: {Median: 550 * time.Millisecond, Sigma: 0.35},
	}, 2*time.Millisecond)
}

// NewModel builds a model from explicit link parameters.
func NewModel(seed int64, links map[LinkClass]LogNormal, processing time.Duration) *Model {
	cp := make(map[LinkClass]logNormal, len(links))
	for k, v := range links {
		cp[k] = v.draw()
	}
	return &Model{
		rng:        rand.New(rand.NewSource(seed)),
		links:      cp,
		wan:        cp[LinkWAN],
		engine:     cp[LinkEngineRTT],
		processing: processing,
	}
}

// Sample draws a one-way latency for the link class (0 for unknown classes).
func (m *Model) Sample(c LinkClass) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.links[c].sample(m.rng)
}

// RelayedSearch draws the latency of a search through one relay: a WAN hop
// to the relay, its processing, the engine round trip, its processing again
// and the WAN hop back. It draws what Sample(LinkWAN),
// Sample(LinkEngineRTT) and Sample(LinkWAN) would, in that order, under one
// lock.
func (m *Model) RelayedSearch() time.Duration {
	m.mu.Lock()
	there := m.wan.sample(m.rng)
	engine := m.engine.sample(m.rng)
	back := m.wan.sample(m.rng)
	m.mu.Unlock()
	return there + engine + back + 2*m.processing
}

// RTT draws a round trip on the link class (two independent one-way
// samples).
func (m *Model) RTT(c LinkClass) time.Duration {
	return m.Sample(c) + m.Sample(c)
}
