package backend

import (
	"sync"
	"sync/atomic"
	"time"
)

// breaker is the closed/open/half-open circuit. Failure rate is tracked in
// a rolling window of fixed buckets; transitions are lock-free (the window
// itself rotates under a small mutex, off the common closed path's only
// atomic state load... the record path takes it once per call).
type breaker struct {
	threshold  float64
	minSamples int
	cooldown   time.Duration
	window     time.Duration

	// state is one of breakerClosed/Open/HalfOpen. probing is the
	// half-open single-flight latch: exactly one caller owns the probe.
	state   atomic.Int32
	probing atomic.Bool

	// openedAt is when the current outage began (cooldown reference and
	// live open-time accounting); openNanos accumulates finished outages;
	// opens counts closed->open transitions.
	openedAt  atomic.Int64
	openNanos atomic.Int64
	opens     atomic.Uint64

	mu       sync.Mutex
	buckets  [breakerBuckets]breakerBucket
	cur      int
	curStart int64 // wall nanos of the current bucket's left edge
}

type breakerBucket struct{ calls, fails int }

const (
	breakerClosed int32 = iota
	breakerOpen
	breakerHalfOpen

	breakerBuckets = 8
)

func (b *breaker) init(p Policy) {
	b.threshold = p.BreakerThreshold
	b.minSamples = p.BreakerMinSamples
	b.cooldown = p.BreakerCooldown
	b.window = p.BreakerWindow
}

// allow reports whether a call may proceed; probe is true when this caller
// owns the half-open probe and MUST report its outcome via record (the
// single-flight latch is only released there).
func (b *breaker) allow(now time.Time) (ok, probe bool) {
	switch b.state.Load() {
	case breakerClosed:
		return true, false
	case breakerOpen:
		if now.UnixNano()-b.openedAt.Load() < int64(b.cooldown) {
			return false, false
		}
		// Cooldown over: the transition winner becomes the probe. probing
		// was left false when the circuit opened, so the CAS winner's
		// store is the only set.
		if b.state.CompareAndSwap(breakerOpen, breakerHalfOpen) {
			b.probing.Store(true)
			return true, true
		}
	}
	// Half-open (possibly just transitioned by a racing caller): admit a
	// single probe; everyone else fails fast.
	if b.state.Load() == breakerHalfOpen && b.probing.CompareAndSwap(false, true) {
		return true, true
	}
	return false, false
}

// admit is allow at the current time, reading the clock only when the
// circuit is not closed: a closed circuit admits whatever the time.
func (b *breaker) admit() (ok, probe bool) {
	if b.state.Load() == breakerClosed {
		return true, false
	}
	return b.allow(time.Now())
}

// record feeds one call outcome back. Probe outcomes drive the state
// machine directly: success closes the circuit, failure reopens it (the
// outage continues, cooldown restarts). Non-probe outcomes only matter
// while closed, where they roll into the failure-rate window.
func (b *breaker) record(success, probe bool, now time.Time) {
	if probe {
		if success {
			b.toClosed(now)
		} else {
			b.reopen(now)
		}
		b.probing.Store(false)
		return
	}
	if b.state.Load() != breakerClosed {
		// A straggler from before the circuit opened; its outcome already
		// informed the decision's window, ignore it.
		return
	}
	nowN := now.UnixNano()
	b.mu.Lock()
	b.rotateLocked(nowN)
	b.buckets[b.cur].calls++
	if !success {
		b.buckets[b.cur].fails++
	}
	calls, fails := 0, 0
	for _, bk := range b.buckets {
		calls += bk.calls
		fails += bk.fails
	}
	b.mu.Unlock()
	if calls >= b.minSamples && float64(fails) >= b.threshold*float64(calls) {
		b.toOpen(now)
	}
}

// rotateLocked advances the bucket ring to cover now, clearing buckets that
// fell out of the window.
func (b *breaker) rotateLocked(nowN int64) {
	span := int64(b.window) / breakerBuckets
	if b.curStart == 0 {
		b.curStart = nowN
		return
	}
	if nowN-b.curStart >= int64(b.window) {
		// Idle longer than the whole window: start fresh.
		for i := range b.buckets {
			b.buckets[i] = breakerBucket{}
		}
		b.curStart = nowN
		b.cur = 0
		return
	}
	for nowN-b.curStart >= span {
		b.cur = (b.cur + 1) % breakerBuckets
		b.buckets[b.cur] = breakerBucket{}
		b.curStart += span
	}
}

// toOpen trips the circuit from closed (racing trippers collapse to one).
func (b *breaker) toOpen(now time.Time) {
	if b.state.CompareAndSwap(breakerClosed, breakerOpen) {
		b.openedAt.Store(now.UnixNano())
		b.opens.Add(1)
	}
}

// reopen returns a failed probe to open: same outage, fresh cooldown. The
// elapsed open time is banked so openState never double-counts.
func (b *breaker) reopen(now time.Time) {
	nowN := now.UnixNano()
	b.openNanos.Add(nowN - b.openedAt.Load())
	b.openedAt.Store(nowN)
	b.state.Store(breakerOpen)
}

// toClosed closes the circuit after a successful probe and resets the
// failure window — history from the outage must not instantly re-trip.
func (b *breaker) toClosed(now time.Time) {
	b.openNanos.Add(now.UnixNano() - b.openedAt.Load())
	b.mu.Lock()
	for i := range b.buckets {
		b.buckets[i] = breakerBucket{}
	}
	b.cur = 0
	b.curStart = now.UnixNano()
	b.mu.Unlock()
	b.state.Store(breakerClosed)
}

// openState reports whether the circuit is currently open (or half-open)
// and the cumulative open time including the live outage.
func (b *breaker) openState(now time.Time) (open bool, openNanos int64) {
	open = b.state.Load() != breakerClosed
	openNanos = b.openNanos.Load()
	if open {
		openNanos += now.UnixNano() - b.openedAt.Load()
	}
	return open, openNanos
}
