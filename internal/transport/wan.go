package transport

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// The WAN matrix models a planet-scale deployment: every node is assigned
// to a geographic region by a seeded hash, and each directed link carries
// the empirical inter-region base latency and loss rate plus heavy-tailed
// (Pareto) per-delivery jitter. All draws are pure functions of
// (seed, from, to, delivery index) — the same splitmix64 discipline as
// simnet's fault streams — so a 10,000-node simulation is replayable from
// its seed, lock-free and allocation-free per sample.

// WANConfig parameterizes a WANMatrix.
type WANConfig struct {
	// Seed drives region assignment and every jitter/loss draw.
	Seed int64
	// Regions names the regions; OneWayMs and Loss are square matrices over
	// them. Zero-value config gets the five-region default (see
	// DefaultWANConfig).
	Regions []string
	// OneWayMs[i][j] is the base one-way latency in milliseconds from region
	// i to region j.
	OneWayMs [][]float64
	// Loss[i][j] is the per-delivery loss probability from region i to
	// region j, each in [0, 1].
	Loss [][]float64
	// JitterShape is the Pareto tail index alpha of the per-delivery jitter
	// (default 2.5; smaller = heavier tail).
	JitterShape float64
	// JitterScale is the Pareto scale x_m as a fraction of the link's base
	// one-way latency (default 0.25). The jitter added to a sample is
	// x_m·(U^(-1/alpha) − 1), so its minimum is 0 and its median is about
	// a third of x_m at the default shape.
	JitterScale float64
	// JitterCap clamps a single jitter draw (default 2s) so a pathological
	// tail sample cannot freeze a simulated round forever.
	JitterCap time.Duration
}

// DefaultWANConfig returns the five-region planet-scale matrix the privacy
// evaluation runs on: two North-American, one European and two Asian
// regions, with base one-way latencies taken from typical public inter-DC
// measurements and loss rates growing with distance.
func DefaultWANConfig(seed int64) WANConfig {
	return WANConfig{
		Seed:    seed,
		Regions: []string{"us-east", "us-west", "eu-west", "ap-south", "ap-east"},
		OneWayMs: [][]float64{
			//        us-east us-west eu-west ap-south ap-east
			{2, 32, 40, 95, 85},  // us-east
			{32, 2, 70, 115, 55}, // us-west
			{40, 70, 2, 60, 105}, // eu-west
			{95, 115, 60, 2, 60}, // ap-south
			{85, 55, 105, 60, 2}, // ap-east
		},
		Loss: [][]float64{
			{0.001, 0.003, 0.004, 0.010, 0.010},
			{0.003, 0.001, 0.008, 0.015, 0.006},
			{0.004, 0.008, 0.001, 0.008, 0.012},
			{0.010, 0.015, 0.008, 0.001, 0.008},
			{0.010, 0.006, 0.012, 0.008, 0.001},
		},
	}
}

// WANMatrix is the seeded region/latency/loss model. All methods are safe
// for concurrent use and allocation-free.
type WANMatrix struct {
	seed    uint64
	regions []string
	oneWay  [][]time.Duration
	loss    [][]uint64 // thresholds out of 2^32
	lossP   [][]float64
	shape   float64
	scale   float64
	cap     time.Duration
}

// NewWANMatrix validates the config and builds the matrix.
func NewWANMatrix(cfg WANConfig) (*WANMatrix, error) {
	if len(cfg.Regions) == 0 {
		cfg = mergeWANDefaults(cfg)
	}
	n := len(cfg.Regions)
	if n == 0 {
		return nil, errors.New("transport: wan matrix needs at least one region")
	}
	if len(cfg.OneWayMs) != n || len(cfg.Loss) != n {
		return nil, fmt.Errorf("transport: wan matrices must be %dx%d over the %d regions", n, n, n)
	}
	if cfg.JitterShape == 0 {
		cfg.JitterShape = 2.5
	}
	if cfg.JitterShape <= 1 || math.IsNaN(cfg.JitterShape) || math.IsInf(cfg.JitterShape, 0) {
		return nil, fmt.Errorf("transport: wan jitter shape %v: need a finite alpha > 1", cfg.JitterShape)
	}
	if cfg.JitterScale == 0 {
		cfg.JitterScale = 0.25
	}
	if cfg.JitterScale < 0 {
		return nil, fmt.Errorf("transport: negative wan jitter scale %v", cfg.JitterScale)
	}
	if cfg.JitterCap == 0 {
		cfg.JitterCap = 2 * time.Second
	}
	m := &WANMatrix{
		seed:    uint64(cfg.Seed),
		regions: append([]string(nil), cfg.Regions...),
		oneWay:  make([][]time.Duration, n),
		loss:    make([][]uint64, n),
		lossP:   make([][]float64, n),
		shape:   cfg.JitterShape,
		scale:   cfg.JitterScale,
		cap:     cfg.JitterCap,
	}
	for i := 0; i < n; i++ {
		if len(cfg.OneWayMs[i]) != n || len(cfg.Loss[i]) != n {
			return nil, fmt.Errorf("transport: wan matrix row %d is not length %d", i, n)
		}
		m.oneWay[i] = make([]time.Duration, n)
		m.loss[i] = make([]uint64, n)
		m.lossP[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if cfg.OneWayMs[i][j] < 0 || math.IsNaN(cfg.OneWayMs[i][j]) {
				return nil, fmt.Errorf("transport: wan latency [%d][%d] = %v", i, j, cfg.OneWayMs[i][j])
			}
			p := cfg.Loss[i][j]
			if p < 0 || p > 1 || math.IsNaN(p) {
				return nil, fmt.Errorf("transport: wan loss [%d][%d] = %v not in [0, 1]", i, j, p)
			}
			m.oneWay[i][j] = time.Duration(cfg.OneWayMs[i][j] * float64(time.Millisecond))
			m.loss[i][j] = uint64(p * (1 << 32))
			m.lossP[i][j] = p
		}
	}
	return m, nil
}

// mergeWANDefaults fills an all-zero config from DefaultWANConfig, keeping
// any explicitly set jitter parameters.
func mergeWANDefaults(cfg WANConfig) WANConfig {
	def := DefaultWANConfig(cfg.Seed)
	def.JitterShape = cfg.JitterShape
	def.JitterScale = cfg.JitterScale
	def.JitterCap = cfg.JitterCap
	return def
}

// Regions returns the region names.
func (m *WANMatrix) Regions() []string {
	return append([]string(nil), m.regions...)
}

// Region deterministically assigns a node to a region: a seeded hash of the
// node's identity. The assignment is stable across processes and runs.
func (m *WANMatrix) Region(id string) int {
	return int(wanMix(m.seed, wanHash(id), 0) % uint64(len(m.regions)))
}

// RegionName returns the name of the node's assigned region.
func (m *WANMatrix) RegionName(id string) string {
	return m.regions[m.Region(id)]
}

// BaseOneWay returns the base one-way latency between two regions.
func (m *WANMatrix) BaseOneWay(a, b int) time.Duration { return m.oneWay[a][b] }

// LossRate returns the configured loss probability between two regions.
func (m *WANMatrix) LossRate(a, b int) float64 { return m.lossP[a][b] }

// OneWay draws the one-way latency of delivery idx on the from -> to link:
// the inter-region base plus a heavy-tailed Pareto jitter. Pure function of
// (seed, from, to, idx).
func (m *WANMatrix) OneWay(from, to string, idx uint64) time.Duration {
	a, b := m.Region(from), m.Region(to)
	base := m.oneWay[a][b]
	u := wanUniform(wanMix(m.seed, wanHash(from)^wanHash(to)<<1^0x1a7e9c, idx))
	// Pareto jitter with minimum 0: x_m·(U^(−1/alpha) − 1).
	xm := m.scale * float64(base)
	j := time.Duration(xm * (math.Pow(u, -1/m.shape) - 1))
	if j > m.cap {
		j = m.cap
	}
	return base + j
}

// RTT draws a round trip of delivery idx: two one-way samples, forward and
// return drawn from distinct streams.
func (m *WANMatrix) RTT(from, to string, idx uint64) time.Duration {
	return m.OneWay(from, to, idx) + m.OneWay(to, from, idx^0xf00dfeed)
}

// Lose reports whether delivery idx on the from -> to link is lost. Pure
// function of (seed, from, to, idx), drawn independently of the latency.
func (m *WANMatrix) Lose(from, to string, idx uint64) bool {
	a, b := m.Region(from), m.Region(to)
	if m.loss[a][b] == 0 {
		return false
	}
	draw := wanMix(m.seed, wanHash(from)^wanHash(to)<<1^0x105eca5e, idx) & 0xFFFFFFFF
	return draw < m.loss[a][b]
}

// ErrLinkLost is the sentinel wrapped into WANConduit loss errors. Callers
// that need a protocol-level classification (core's relay-unavailable
// taxonomy) set WANConduit.Lost instead.
var ErrLinkLost = errors.New("transport: wan link lost delivery")

// WANConduit layers the WAN matrix over an inner Conduit: every delivery
// pays a sampled round trip as injected latency, and lost deliveries fail
// without reaching the inner conduit. Per-pair delivery indices make the
// loss/latency streams deterministic per link.
type WANConduit struct {
	// Lost is the error a lost delivery wraps (default ErrLinkLost).
	// Install core's unavailability sentinel here so requesters re-sample
	// instead of charging the relay with misbehavior.
	Lost error

	m     *WANMatrix
	inner Conduit

	mu    sync.Mutex
	pairs map[[2]string]uint64
}

// NewWANConduit builds the middleware over inner.
func NewWANConduit(m *WANMatrix, inner Conduit) *WANConduit {
	return &WANConduit{m: m, inner: inner, pairs: make(map[[2]string]uint64)}
}

// Matrix returns the underlying WANMatrix.
func (c *WANConduit) Matrix() *WANMatrix { return c.m }

// Deliver implements Conduit.
func (c *WANConduit) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	c.mu.Lock()
	idx := c.pairs[[2]string{from, to}]
	c.pairs[[2]string{from, to}] = idx + 1
	c.mu.Unlock()

	if c.m.Lose(from, to, idx) {
		lost := c.Lost
		if lost == nil {
			lost = ErrLinkLost
		}
		return nil, 0, fmt.Errorf("%w: %s->%s #%d (%s->%s)", lost,
			from, to, idx, c.m.RegionName(from), c.m.RegionName(to))
	}
	resp, injected, err := c.inner.Deliver(from, to, payload, now)
	return resp, injected + c.m.RTT(from, to, idx), err
}

// wanHash is the process-stable FNV-1a hash keying per-node and per-link
// streams.
func wanHash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// wanMix is the splitmix64 finalizer over (seed, stream, index).
func wanMix(seed, stream, idx uint64) uint64 {
	x := seed ^ stream ^ (idx+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// wanUniform maps a 64-bit draw to a uniform in (0, 1] — never 0, so the
// Pareto pow is always finite.
func wanUniform(x uint64) float64 {
	return (float64(x>>11) + 1) / float64(1<<53)
}
