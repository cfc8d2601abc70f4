package backend

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cyclosa/internal/searchengine"
	"cyclosa/internal/workers"
)

// Engine is the one-method search-engine seam the stack decorates. It is
// structurally identical to core.Backend, so a Stack wraps anything core
// accepts and is itself accepted by core — without an import cycle.
type Engine interface {
	Search(source, query string, now time.Time) ([]searchengine.Result, error)
}

// Policy configures the decorator stack. The zero value gets defaults
// suitable for a relay fronting a remote engine; Validate reports values
// that are out of range rather than silently defaulting, for surfaces
// (flags) that must reject bad input loudly.
type Policy struct {
	// Timeout is the total per-call budget: every attempt, backoff sleep
	// and retry of one Search must finish inside it (default 800ms).
	Timeout time.Duration
	// MaxRetries bounds re-submissions after the first attempt; 0 means no
	// retries (the node command defaults its flag to 2).
	MaxRetries int
	// RetryBackoff is the base backoff before the first retry; it doubles
	// per attempt and is drawn with full jitter (default 10ms).
	RetryBackoff time.Duration
	// RetryBudget is the token fraction each success deposits toward future
	// retries. Retries spend one token each; when the bucket is dry the
	// stack stops retrying instead of amplifying a brownout into a retry
	// storm (default 0.1 — one retry banked per ten successes).
	RetryBudget float64
	// BreakerThreshold is the failure rate over the rolling window that
	// opens the circuit, in (0, 1] (default 0.5).
	BreakerThreshold float64
	// BreakerWindow is the rolling failure-rate window (default 10s).
	BreakerWindow time.Duration
	// BreakerMinSamples is the minimum calls inside the window before the
	// rate is believed (default 10).
	BreakerMinSamples int
	// BreakerCooldown is how long an open circuit waits before admitting a
	// single half-open probe (default 1s).
	BreakerCooldown time.Duration
	// MaxInFlight caps concurrent engine calls; excess load is shed with
	// ErrEngineOverloaded (default 64).
	MaxInFlight int
}

func (p Policy) withDefaults() Policy {
	q := p
	if q.Timeout <= 0 {
		q.Timeout = 800 * time.Millisecond
	}
	if q.MaxRetries < 0 {
		q.MaxRetries = 0
	}
	if q.RetryBackoff <= 0 {
		q.RetryBackoff = 10 * time.Millisecond
	}
	if q.RetryBudget <= 0 {
		q.RetryBudget = 0.1
	}
	if q.BreakerThreshold <= 0 || q.BreakerThreshold > 1 {
		q.BreakerThreshold = 0.5
	}
	if q.BreakerWindow <= 0 {
		q.BreakerWindow = 10 * time.Second
	}
	if q.BreakerMinSamples <= 0 {
		q.BreakerMinSamples = 10
	}
	if q.BreakerCooldown <= 0 {
		q.BreakerCooldown = time.Second
	}
	if q.MaxInFlight <= 0 {
		q.MaxInFlight = 64
	}
	return q
}

// Validate reports the first out-of-range field, for callers (command-line
// flags) that must reject rather than default.
func (p Policy) Validate() error {
	switch {
	case p.Timeout <= 0:
		return fmt.Errorf("backend: engine timeout must be > 0, got %v", p.Timeout)
	case p.MaxRetries < 0:
		return fmt.Errorf("backend: engine retries must be >= 0, got %d", p.MaxRetries)
	case p.BreakerThreshold <= 0 || p.BreakerThreshold > 1:
		return fmt.Errorf("backend: breaker threshold must be in (0, 1], got %g", p.BreakerThreshold)
	case p.MaxInFlight < 1:
		return fmt.Errorf("backend: engine max-inflight must be >= 1, got %d", p.MaxInFlight)
	}
	return nil
}

// Stats is a JSON-ready snapshot of the stack's counters, exported through
// the node-stats / view-snapshot surface so an operator can see brownout
// state live.
type Stats struct {
	// Calls counts Search invocations (before any gating).
	Calls uint64 `json:"calls"`
	// Successes counts Searches that returned engine results.
	Successes uint64 `json:"successes"`
	// EngineErrors counts failed engine attempts (errors the engine itself
	// returned; sheds and watchdog timeouts are counted separately).
	EngineErrors uint64 `json:"engine_errors"`
	// Shed counts calls rejected by the admission gate (ErrEngineOverloaded).
	Shed uint64 `json:"shed"`
	// Retries counts re-submitted attempts.
	Retries uint64 `json:"retries"`
	// Timeouts counts watchdog deadline expiries (ErrEngineTimeout).
	Timeouts uint64 `json:"timeouts"`
	// BreakerOpens counts closed->open transitions.
	BreakerOpens uint64 `json:"breaker_opens"`
	// BreakerRejected counts calls refused while the circuit was open
	// (ErrEngineUnavailable).
	BreakerRejected uint64 `json:"breaker_rejected"`
	// BreakerOpen reports whether the circuit is open or half-open now.
	BreakerOpen bool `json:"breaker_open"`
	// BreakerOpenNanos is the cumulative time the circuit has spent
	// open/half-open, including the current outage when BreakerOpen.
	BreakerOpenNanos int64 `json:"breaker_open_ns"`
	// InFlight is the number of engine calls running right now (hung calls
	// keep counting until the engine returns).
	InFlight int `json:"in_flight"`
	// RetryBudgetMillitokens is the current retry token-bucket level in
	// thousandths of a retry: retryTokenCap when the engine is healthy,
	// draining toward zero as failures consume retries. Ops surfaces watch
	// it as an early-warning level — a budget pinned near zero means the
	// stack is failing faster than successes refill it.
	RetryBudgetMillitokens int64 `json:"retry_budget_millitokens"`
}

// Stack is the resilient decorator over an Engine. The zero value is not
// usable; build one with NewStack. A Stack is safe for concurrent use and
// allocation-free on the success path once warm (it reuses lingering worker
// goroutines and pooled call frames, each with its own watchdog timer).
type Stack struct {
	inner Engine
	pol   Policy

	inFlight atomic.Int64         // admission gate; a slot is held until the engine returns
	workers  *workers.Pool[*call] // lingering workers running the engine calls

	breaker  breaker
	tokens   atomic.Int64  // retry budget, millitokens
	rngState atomic.Uint64 // splitmix64 stream for backoff jitter

	callPool sync.Pool

	calls           atomic.Uint64
	successes       atomic.Uint64
	engineErrors    atomic.Uint64
	shed            atomic.Uint64
	retries         atomic.Uint64
	timeouts        atomic.Uint64
	breakerRejected atomic.Uint64
}

// retryTokenScale is one retry token in the atomic bucket's fixed-point
// units; retryTokenCap banks at most ten retries so a long healthy stretch
// cannot fund a storm later.
const (
	retryTokenScale = 1000
	retryTokenCap   = 10 * retryTokenScale
)

// NewStack decorates inner with the policy's gate, breaker, retry and
// deadline layers. Out-of-range policy fields take their defaults (use
// Policy.Validate first when bad input must be an error).
func NewStack(inner Engine, pol Policy) *Stack {
	p := pol.withDefaults()
	s := &Stack{inner: inner, pol: p}
	s.workers = workers.New("engine", s.runCall)
	s.breaker.init(p)
	s.tokens.Store(retryTokenCap) // cold start may retry
	s.rngState.Store(uint64(0x9E3779B97F4A7C15))
	return s
}

// Policy returns the stack's effective (defaulted) policy.
func (s *Stack) Policy() Policy { return s.pol }

// Stats snapshots the stack's counters.
func (s *Stack) Stats() Stats {
	open, openNanos := s.breaker.openState(time.Now())
	return Stats{
		Calls:            s.calls.Load(),
		Successes:        s.successes.Load(),
		EngineErrors:     s.engineErrors.Load(),
		Shed:             s.shed.Load(),
		Retries:          s.retries.Load(),
		Timeouts:         s.timeouts.Load(),
		BreakerOpens:     s.breaker.opens.Load(),
		BreakerRejected:  s.breakerRejected.Load(),
		BreakerOpen:      open,
		BreakerOpenNanos: openNanos,
		InFlight:         int(s.inFlight.Load()),

		RetryBudgetMillitokens: s.tokens.Load(),
	}
}

// Search runs one engine call through the full stack with the policy's
// default budget. now is protocol time (passed through to the engine); the
// deadline machinery runs on the wall clock.
func (s *Stack) Search(source, query string, now time.Time) ([]searchengine.Result, error) {
	return s.SearchBudget(source, query, now, s.pol.Timeout)
}

// SearchBudget is Search with an explicit budget threaded from the caller's
// remaining timeout (a relay that owes its requester an answer in 300ms must
// not spend 800ms on the engine). The budget is capped at Policy.Timeout;
// zero or negative means the full policy budget.
func (s *Stack) SearchBudget(source, query string, now time.Time, budget time.Duration) ([]searchengine.Result, error) {
	if budget <= 0 || budget > s.pol.Timeout {
		budget = s.pol.Timeout
	}
	s.calls.Add(1)
	deadline := time.Now().Add(budget)

	var lastErr error
	for attempt := 0; ; attempt++ {
		// The first attempt has the whole budget; a retry, what is left.
		wait := budget
		if attempt > 0 {
			if wait = time.Until(deadline); wait <= 0 {
				s.timeouts.Add(1)
				return nil, fmt.Errorf("%w: %v budget exhausted", ErrEngineTimeout, budget)
			}
		}

		// Admission gate: shed instead of queuing. The slot is released by
		// the worker when the engine call actually returns — a hung call
		// keeps its slot, which is what turns sustained hangs into shedding
		// instead of unbounded goroutine pile-up.
		if !s.takeSlot() {
			s.shed.Add(1)
			return nil, fmt.Errorf("%w: %d engine calls in flight", ErrEngineOverloaded, s.pol.MaxInFlight)
		}

		// Circuit breaker: fail fast on a known-bad engine. Checked after
		// the gate so an open breaker under overload still sheds honestly.
		ok, probe := s.breaker.admit()
		if !ok {
			s.inFlight.Add(-1)
			s.breakerRejected.Add(1)
			return nil, fmt.Errorf("%w: circuit open", ErrEngineUnavailable)
		}

		results, err := s.attempt(source, query, now, wait)
		if err == nil {
			s.breaker.record(true, probe, time.Now())
			s.successes.Add(1)
			s.depositRetryTokens()
			return results, nil
		}
		s.breaker.record(false, probe, time.Now())
		lastErr = err
		if isTimeout(err) {
			// The watchdog consumed the remaining budget; retrying now would
			// only ever time out again at wait <= 0.
			return nil, err
		}
		s.engineErrors.Add(1)
		if attempt >= s.pol.MaxRetries || !s.takeRetryToken() {
			return nil, lastErr
		}
		s.retries.Add(1)
		s.backoff(attempt, deadline)
	}
}

// takeSlot takes an admission slot if fewer than MaxInFlight calls are in
// flight.
func (s *Stack) takeSlot() bool {
	limit := int64(s.pol.MaxInFlight)
	for {
		n := s.inFlight.Load()
		if n >= limit {
			return false
		}
		if s.inFlight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// isTimeout reports whether err is the watchdog's deadline error without
// the allocation errors.Is can incur on wrapped chains.
func isTimeout(err error) bool {
	type unwrapper interface{ Unwrap() error }
	for err != nil {
		if err == ErrEngineTimeout {
			return true
		}
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// depositRetryTokens credits the retry budget after a success, capped.
func (s *Stack) depositRetryTokens() {
	add := int64(s.pol.RetryBudget * retryTokenScale)
	if add <= 0 {
		return
	}
	for {
		cur := s.tokens.Load()
		next := cur + add
		if next > retryTokenCap {
			next = retryTokenCap
		}
		if next == cur || s.tokens.CompareAndSwap(cur, next) {
			return
		}
	}
}

// takeRetryToken spends one retry token; false means the budget is dry and
// the caller must stop retrying (no retry storms under brownout).
func (s *Stack) takeRetryToken() bool {
	for {
		cur := s.tokens.Load()
		if cur < retryTokenScale {
			return false
		}
		if s.tokens.CompareAndSwap(cur, cur-retryTokenScale) {
			return true
		}
	}
}

// backoff sleeps before retry `attempt+1`: exponential base with full jitter
// (a uniform draw in [0, base<<attempt)), clamped to the remaining budget.
func (s *Stack) backoff(attempt int, deadline time.Time) {
	base := s.pol.RetryBackoff << uint(attempt)
	if base <= 0 { // shift overflow guard
		base = s.pol.RetryBackoff
	}
	d := time.Duration(s.rand64() % uint64(base))
	if remaining := time.Until(deadline); d > remaining {
		d = remaining
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// rand64 draws from a lock-free splitmix64 stream (jitter needs speed and
// independence, not cryptographic strength).
func (s *Stack) rand64() uint64 {
	z := s.rngState.Add(0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// call is one watchdog-supervised engine invocation. The frame is pooled,
// and owns the watchdog timer that abandons it.
//
// Three parties hold a frame while a call runs: the caller, the worker
// running the engine, and the watchdog. The worker (the engine returned) and
// the watchdog (the wait ran out) race to resolve the call; the winner posts
// the one outcome the caller receives. Each party lets go of the frame once
// done with it, the caller on the watchdog's behalf when it stops the timer
// before it fires, and whoever lets go last recycles the frame. So a frame is
// never reused while its timer can still fire or its engine call still run.
type call struct {
	stack         *Stack
	source, query string
	now           time.Time
	results       []searchengine.Result
	err           error
	done          chan struct{} // the outcome: one post per call
	watchdog      *time.Timer   // made once per frame, re-armed per call
	// state sequences the worker/watchdog race: live -> delivered (the
	// engine returned in time) or live -> abandoned (the wait ran out).
	state atomic.Int32
	// holders counts the parties still using the frame.
	holders atomic.Int32
}

const (
	callLive int32 = iota
	callAbandoned
	callDelivered
)

func (s *Stack) getCall() *call {
	if c, ok := s.callPool.Get().(*call); ok {
		return c
	}
	return &call{stack: s, done: make(chan struct{}, 1)}
}

// release lets go of the frame; the last holder recycles it.
func (c *call) release() {
	if c.holders.Add(-1) != 0 {
		return
	}
	c.source, c.query = "", ""
	c.now = time.Time{}
	c.results, c.err = nil, nil
	c.state.Store(callLive)
	c.stack.callPool.Put(c)
}

// attempt runs one engine call under the watchdog. The caller must already
// hold an admission slot; the worker releases it when the engine returns
// (even long after the caller gave up).
func (s *Stack) attempt(source, query string, now time.Time, wait time.Duration) ([]searchengine.Result, error) {
	c := s.getCall()
	c.source, c.query, c.now = source, query, now
	c.holders.Store(3)
	if c.watchdog == nil {
		c.watchdog = time.AfterFunc(wait, c.expire)
	} else {
		c.watchdog.Reset(wait)
	}
	s.workers.Go(c)

	<-c.done
	if c.watchdog.Stop() {
		c.release() // the watchdog will not fire: let go on its behalf
	}
	if c.state.Load() == callAbandoned {
		// The engine is still running (hang or slow reply). Its slot stays
		// held until it returns.
		c.release()
		s.timeouts.Add(1)
		return nil, fmt.Errorf("%w: no engine response within %v", ErrEngineTimeout, wait)
	}
	results, err := c.results, c.err
	c.release()
	return results, err
}

// expire is the watchdog: unless the engine already answered, it abandons
// the call and posts the outcome.
func (c *call) expire() {
	if c.state.CompareAndSwap(callLive, callAbandoned) {
		c.done <- struct{}{}
	}
	c.release()
}

// runCall executes one engine call and resolves the completion race.
func (s *Stack) runCall(c *call) {
	results, err := s.inner.Search(c.source, c.query, c.now)
	s.inFlight.Add(-1) // the call is no longer in flight, whether anyone is waiting or not
	if c.state.CompareAndSwap(callLive, callDelivered) {
		c.results, c.err = results, err
		c.done <- struct{}{}
	}
	c.release()
}
