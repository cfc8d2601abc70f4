package accounting

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClientThrottled is returned by Limiter.Allow when a client is over its
// per-client rate. It is a sentinel so callers can match it with errors.Is
// without allocating per rejection.
var ErrClientThrottled = errors.New("accounting: client throttled")

// limiterShards is the fixed shard count of a Limiter. Sixteen shards keep
// lock contention negligible at the admission edge (admission is one short
// critical section per request) without bloating the zero-value footprint.
const limiterShards = 16

// defaultMaxClients bounds tracked buckets per shard when
// LimiterConfig.MaxClients is zero: an adversary minting fresh client IDs
// must not grow memory without bound.
const defaultMaxClients = 4096

// LimiterConfig configures a per-client token-bucket Limiter.
type LimiterConfig struct {
	// QPS is the steady-state refill rate in tokens per second per client.
	// Must be positive and finite.
	QPS float64
	// Burst is the bucket capacity: the largest back-to-back run a client
	// may spend after an idle period. Must be positive.
	Burst int
	// MaxClients caps the number of concurrently tracked client buckets
	// across the limiter (0 = 65536, i.e. 4096 per shard). When a shard is
	// full, fully refilled (idle) buckets are recycled; if none are idle
	// the oldest-touched bucket is evicted. Eviction grants a fresh burst,
	// which errs on the side of admitting — acceptable because the cap only
	// binds under an ID-minting flood, which per-ID quotas cannot stop
	// anyway (that is the gateway's Sybil problem, not the limiter's).
	MaxClients int
	// Now is the clock (tests inject a fake one; nil = time.Now).
	Now func() time.Time
}

// LimiterStats is a point-in-time snapshot of admission outcomes.
type LimiterStats struct {
	// Admitted counts requests that consumed a token.
	Admitted uint64
	// Throttled counts requests rejected with ErrClientThrottled.
	Throttled uint64
	// Clients is the number of client buckets currently tracked.
	Clients int
	// Evicted counts buckets recycled to honor MaxClients.
	Evicted uint64
}

// bucket is one client's token bucket. Tokens refill continuously at
// qps/sec up to burst; each admitted request spends one token.
type bucket struct {
	tokens float64
	last   time.Time
}

type limiterShard struct {
	mu      sync.Mutex
	buckets map[string]*bucket
}

// Limiter is a sharded per-client token-bucket rate limiter. All methods
// are safe for concurrent use.
type Limiter struct {
	qps       float64
	burst     float64
	perShard  int
	now       func() time.Time
	shards    [limiterShards]limiterShard
	admitted  atomic.Uint64
	throttled atomic.Uint64
	evicted   atomic.Uint64
}

// NewLimiter validates cfg and builds a Limiter. QPS must be positive and
// finite, Burst positive: a zero or negative quota would silently blackhole
// every client, so it is a configuration error, not a default.
func NewLimiter(cfg LimiterConfig) (*Limiter, error) {
	if cfg.QPS <= 0 || math.IsInf(cfg.QPS, 0) || math.IsNaN(cfg.QPS) {
		return nil, fmt.Errorf("accounting: limiter qps must be positive and finite, got %v", cfg.QPS)
	}
	if cfg.Burst <= 0 {
		return nil, fmt.Errorf("accounting: limiter burst must be positive, got %d", cfg.Burst)
	}
	perShard := defaultMaxClients
	if cfg.MaxClients > 0 {
		perShard = (cfg.MaxClients + limiterShards - 1) / limiterShards
		if perShard < 1 {
			perShard = 1
		}
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	l := &Limiter{
		qps:      cfg.QPS,
		burst:    float64(cfg.Burst),
		perShard: perShard,
		now:      now,
	}
	for i := range l.shards {
		l.shards[i].buckets = make(map[string]*bucket)
	}
	return l, nil
}

// Allow spends one token from client's bucket, returning nil when admitted
// and ErrClientThrottled when the bucket is empty.
func (l *Limiter) Allow(client string) error {
	sh := &l.shards[fnv32(client)%limiterShards]
	t := l.now()

	sh.mu.Lock()
	b := sh.buckets[client]
	if b == nil {
		b = l.newBucket(sh, t)
		sh.buckets[client] = b
	} else {
		l.refill(b, t)
	}
	admitted := b.tokens >= 1
	if admitted {
		b.tokens--
	}
	sh.mu.Unlock()

	if !admitted {
		l.throttled.Add(1)
		return ErrClientThrottled
	}
	l.admitted.Add(1)
	return nil
}

// refill credits b with tokens accrued since its last touch.
func (l *Limiter) refill(b *bucket, t time.Time) {
	if dt := t.Sub(b.last); dt > 0 {
		b.tokens += dt.Seconds() * l.qps
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = t
}

// newBucket allocates a full bucket, recycling an idle one when the shard
// is at capacity. Callers hold sh.mu.
func (l *Limiter) newBucket(sh *limiterShard, t time.Time) *bucket {
	if len(sh.buckets) >= l.perShard {
		l.evictLocked(sh, t)
	}
	return &bucket{tokens: l.burst, last: t}
}

// evictLocked removes one bucket: preferably one that has fully refilled
// (the client has been idle long enough that dropping its state is
// lossless), otherwise the least-recently-touched one.
func (l *Limiter) evictLocked(sh *limiterShard, t time.Time) {
	var oldestKey string
	var oldest time.Time
	first := true
	for k, b := range sh.buckets {
		l.refill(b, t)
		if b.tokens >= l.burst {
			delete(sh.buckets, k)
			l.evicted.Add(1)
			return
		}
		if first || b.last.Before(oldest) {
			first, oldestKey, oldest = false, k, b.last
		}
	}
	if !first {
		delete(sh.buckets, oldestKey)
		l.evicted.Add(1)
	}
}

// Stats snapshots admission outcomes.
func (l *Limiter) Stats() LimiterStats {
	s := LimiterStats{
		Admitted:  l.admitted.Load(),
		Throttled: l.throttled.Load(),
		Evicted:   l.evicted.Load(),
	}
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		s.Clients += len(sh.buckets)
		sh.mu.Unlock()
	}
	return s
}

// fnv32 is the 32-bit FNV-1a hash, inlined to keep shard selection
// allocation-free on the admission path.
func fnv32(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}
