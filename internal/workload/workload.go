package workload

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"cyclosa/internal/queries"
)

// Stream produces the queries of one client. A Stream is used by a single
// goroutine; independence across clients is what keeps the engine's hot
// path lock-free.
type Stream interface {
	// Next returns the next query to issue. Streams are infinite: they wrap
	// around their underlying material rather than running dry.
	Next() string
}

// Generator builds per-client query streams.
type Generator interface {
	// Stream returns the stream for client (0-based) out of clients total.
	// Distinct clients' streams must be safe to use from distinct
	// goroutines, and the sequence of each stream must depend only on
	// (client, clients) and the generator's own configuration — never on
	// scheduling.
	Stream(client, clients int) Stream
}

// funcStream adapts a closure to Stream.
type funcStream func() string

func (f funcStream) Next() string { return f() }

// fixed is the degenerate generator: every client issues the same query.
type fixed string

func (f fixed) Stream(int, int) Stream {
	return funcStream(func() string { return string(f) })
}

// Fixed returns a generator that always produces q — the discipline of the
// relay capacity benchmark, where the query content is irrelevant.
func Fixed(q string) Generator { return fixed(q) }

// ZipfConfig tunes the Zipf-popularity generator.
type ZipfConfig struct {
	// PoolSize is the number of distinct queries in the popularity pool
	// (default 1024).
	PoolSize int
	// S is the Zipf exponent (> 1, default 1.2 — flat enough that the tail
	// is exercised, skewed enough that hot queries dominate, like real web
	// search popularity).
	S float64
	// Seed drives pool synthesis and every client's draw sequence.
	Seed int64
}

// zipfGen draws queries from a synthesized pool with Zipf-distributed
// popularity: rank 0 is the hottest query.
type zipfGen struct {
	pool []string
	s    float64
	seed int64
}

// Validate checks the config and fills in defaults: PoolSize 0 means 1024
// and S 0 means 1.2, but an explicit out-of-range value is an error rather
// than a silent rewrite — rand.NewZipf returns nil for s <= 1 (NaN and ±Inf
// included), which would otherwise surface as a panic on the first draw,
// and a pool of fewer than two queries has no popularity distribution at
// all (PoolSize 1 makes the rand.NewZipf imax underflow-adjacent zero and
// every draw identical).
func (cfg *ZipfConfig) Validate() error {
	switch {
	case cfg.PoolSize == 0:
		cfg.PoolSize = 1024
	case cfg.PoolSize < 2:
		return fmt.Errorf("workload: zipf pool size %d: need >= 2 queries for a popularity distribution", cfg.PoolSize)
	}
	switch {
	case cfg.S == 0:
		cfg.S = 1.2
	case math.IsNaN(cfg.S) || math.IsInf(cfg.S, 0) || cfg.S <= 1:
		return fmt.Errorf("workload: zipf exponent %v: need a finite s > 1", cfg.S)
	}
	return nil
}

// NewZipf builds a Zipf-popularity generator over queries synthesized from
// the universe vocabulary (two to three topic terms each, the shape of the
// synthetic workload's queries). The config is validated at construction so
// a bad exponent or degenerate pool fails here, not as a nil-Zipf panic on
// the first draw.
func NewZipf(uni *queries.Universe, cfg ZipfConfig) (Generator, error) {
	if uni == nil || len(uni.Topics) == 0 {
		return nil, fmt.Errorf("workload: zipf generator needs a universe with topics")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pool := make([]string, cfg.PoolSize)
	for i := range pool {
		topic := uni.Topics[rng.Intn(len(uni.Topics))]
		n := 2 + rng.Intn(2)
		terms := make([]string, n)
		for j := range terms {
			terms[j] = topic.Terms[rng.Intn(len(topic.Terms))]
		}
		pool[i] = strings.Join(terms, " ")
	}
	return &zipfGen{pool: pool, s: cfg.S, seed: cfg.Seed}, nil
}

func (g *zipfGen) Stream(client, _ int) Stream {
	// Each client gets an independent deterministic RNG; rand.Zipf draws
	// ranks in [0, PoolSize).
	rng := rand.New(rand.NewSource(g.seed + 1e9 + int64(client)*7919))
	z := rand.NewZipf(rng, g.s, 1, uint64(len(g.pool)-1))
	return funcStream(func() string { return g.pool[z.Uint64()] })
}

// traceGen replays a recorded query log, interleaved across clients: client
// c of n replays trace entries c, c+n, c+2n, ... in trace order, wrapping
// at the end. The union of all client streams over one wrap is exactly the
// trace.
type traceGen struct {
	texts []string
}

// Replay builds a trace-replay generator over the log's queries in log
// order. It panics on an empty log.
func Replay(log *queries.Log) Generator {
	if log == nil || log.Len() == 0 {
		panic("workload: Replay with an empty log")
	}
	texts := make([]string, log.Len())
	for i, q := range log.Queries {
		texts[i] = q.Text
	}
	return &traceGen{texts: texts}
}

// ReplayQueries builds a trace-replay generator over raw query strings.
func ReplayQueries(texts []string) Generator {
	if len(texts) == 0 {
		panic("workload: ReplayQueries with no queries")
	}
	cp := make([]string, len(texts))
	copy(cp, texts)
	return &traceGen{texts: cp}
}

func (g *traceGen) Stream(client, clients int) Stream {
	if clients <= 0 {
		clients = 1
	}
	i := client % len(g.texts)
	return funcStream(func() string {
		q := g.texts[i]
		i = (i + clients) % len(g.texts)
		return q
	})
}
