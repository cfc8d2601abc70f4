package backend

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyclosa/internal/searchengine"
)

var t0 = time.Unix(1700000000, 0)

// countingEngine fails while failing is set and counts every call.
type countingEngine struct {
	calls   atomic.Uint64
	failing atomic.Bool
	delay   time.Duration
}

func (e *countingEngine) Search(string, string, time.Time) ([]searchengine.Result, error) {
	e.calls.Add(1)
	if e.delay > 0 {
		time.Sleep(e.delay)
	}
	if e.failing.Load() {
		return nil, errors.New("engine down")
	}
	return nil, nil
}

// blockingEngine parks every call until released.
type blockingEngine struct {
	entered chan struct{}
	release chan struct{}
}

func (e *blockingEngine) Search(string, string, time.Time) ([]searchengine.Result, error) {
	e.entered <- struct{}{}
	<-e.release
	return nil, nil
}

func TestStackPassThrough(t *testing.T) {
	eng := &countingEngine{}
	s := NewStack(eng, Policy{})
	if _, err := s.Search("n1", "query", t0); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Calls != 1 || st.Successes != 1 || st.Shed != 0 || st.Retries != 0 {
		t.Fatalf("unexpected stats after clean call: %+v", st)
	}
	if eng.calls.Load() != 1 {
		t.Fatalf("engine called %d times, want 1", eng.calls.Load())
	}
}

// TestAdmissionGateSheds: with MaxInFlight slots occupied by parked engine
// calls, the next Search must fail fast with the typed overload error, not
// queue behind them.
func TestAdmissionGateSheds(t *testing.T) {
	eng := &blockingEngine{entered: make(chan struct{}, 4), release: make(chan struct{})}
	s := NewStack(eng, Policy{MaxInFlight: 2, Timeout: 2 * time.Second})

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Search("n1", "parked", t0); err != nil {
				t.Errorf("parked call failed: %v", err)
			}
		}()
	}
	<-eng.entered
	<-eng.entered // both slots now held inside the engine

	start := time.Now()
	_, err := s.Search("n1", "one too many", t0)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrEngineOverloaded) {
		t.Fatalf("saturated gate returned %v, want ErrEngineOverloaded", err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("shed took %v; shedding must fail fast, not queue", elapsed)
	}
	if st := s.Stats(); st.Shed != 1 || st.InFlight != 2 {
		t.Fatalf("stats after shed: %+v, want Shed=1 InFlight=2", st)
	}

	close(eng.release)
	wg.Wait()
	if st := s.Stats(); st.Successes != 2 {
		t.Fatalf("parked calls should complete after release: %+v", st)
	}
}

// TestDeadlineWatchdog: a hung engine call must not wedge the caller — the
// watchdog returns the typed timeout at the budget, and the abandoned call
// releases its in-flight slot when the engine eventually returns.
func TestDeadlineWatchdog(t *testing.T) {
	eng := &blockingEngine{entered: make(chan struct{}, 1), release: make(chan struct{})}
	s := NewStack(eng, Policy{Timeout: 40 * time.Millisecond, MaxInFlight: 4})

	start := time.Now()
	_, err := s.Search("n1", "hung", t0)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrEngineTimeout) {
		t.Fatalf("hung engine returned %v, want ErrEngineTimeout", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("watchdog fired after %v, budget was 40ms", elapsed)
	}
	if st := s.Stats(); st.InFlight != 1 {
		t.Fatalf("abandoned call must keep its slot while hung: %+v", st)
	}

	close(eng.release) // the engine finally returns
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if s.Stats().InFlight == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("abandoned call never released its slot: %+v", s.Stats())
}

// TestRetryRecoversTransientError: one failure then success — the retry
// layer absorbs it invisibly.
func TestRetryRecoversTransientError(t *testing.T) {
	eng := &countingEngine{}
	eng.failing.Store(true)
	fail1 := &flipEngine{inner: eng, failAfter: 1}
	s := NewStack(fail1, Policy{MaxRetries: 2, RetryBackoff: time.Millisecond,
		BreakerMinSamples: 1 << 30})
	if _, err := s.Search("n1", "flaky", t0); err != nil {
		t.Fatalf("retry should absorb one transient failure: %v", err)
	}
	if st := s.Stats(); st.Retries != 1 || st.EngineErrors != 1 || st.Successes != 1 {
		t.Fatalf("stats: %+v, want Retries=1 EngineErrors=1 Successes=1", st)
	}
}

// flipEngine fails the first failAfter calls, then delegates successes.
type flipEngine struct {
	inner     *countingEngine
	calls     atomic.Uint64
	failAfter uint64
}

func (e *flipEngine) Search(src, q string, now time.Time) ([]searchengine.Result, error) {
	if e.calls.Add(1) <= e.failAfter {
		return nil, errors.New("transient")
	}
	e.inner.failing.Store(false)
	return e.inner.Search(src, q, now)
}

// TestRetryBudgetPreventsStorms: with the engine hard down and no successes
// replenishing the bucket, total retries across many calls are bounded by
// the banked budget — a brownout must not amplify into a retry storm.
func TestRetryBudgetPreventsStorms(t *testing.T) {
	eng := &countingEngine{}
	eng.failing.Store(true)
	s := NewStack(eng, Policy{
		MaxRetries:        2,
		RetryBackoff:      time.Microsecond,
		BreakerMinSamples: 1 << 30, // keep the breaker out of this test
	})
	for i := 0; i < 50; i++ {
		if _, err := s.Search("n1", "down", t0); err == nil {
			t.Fatal("engine is down; Search must fail")
		}
	}
	st := s.Stats()
	if st.Retries != retryTokenCap/retryTokenScale {
		t.Fatalf("retries = %d, want exactly the banked budget %d (no storms)",
			st.Retries, retryTokenCap/retryTokenScale)
	}
	// 50 first attempts plus the banked retries, not 50 * (1 + MaxRetries).
	if got, want := eng.calls.Load(), uint64(50+retryTokenCap/retryTokenScale); got != want {
		t.Fatalf("engine saw %d calls, want %d", got, want)
	}
}

// TestStackBreakerOpensAndRecovers drives the full loop through the stack:
// failures open the circuit (calls then fail fast without touching the
// engine), the cooldown admits one probe, and a successful probe closes it.
func TestStackBreakerOpensAndRecovers(t *testing.T) {
	eng := &countingEngine{}
	eng.failing.Store(true)
	s := NewStack(eng, Policy{
		MaxRetries:        0,
		BreakerThreshold:  0.5,
		BreakerMinSamples: 4,
		BreakerWindow:     time.Second,
		BreakerCooldown:   30 * time.Millisecond,
	})

	for i := 0; i < 4; i++ {
		if _, err := s.Search("n1", "down", t0); err == nil {
			t.Fatal("want engine error")
		}
	}
	if st := s.Stats(); st.BreakerOpens != 1 || !st.BreakerOpen {
		t.Fatalf("4 straight failures should open the breaker: %+v", st)
	}

	// Open: fail fast, engine untouched.
	before := eng.calls.Load()
	_, err := s.Search("n1", "still down", t0)
	if !errors.Is(err, ErrEngineUnavailable) {
		t.Fatalf("open breaker returned %v, want ErrEngineUnavailable", err)
	}
	if eng.calls.Load() != before {
		t.Fatal("open breaker must not touch the engine")
	}

	// After the cooldown the single probe goes through; success closes.
	eng.failing.Store(false)
	time.Sleep(40 * time.Millisecond)
	if _, err := s.Search("n1", "probe", t0); err != nil {
		t.Fatalf("probe should succeed and close the circuit: %v", err)
	}
	st := s.Stats()
	if st.BreakerOpen {
		t.Fatalf("breaker still open after successful probe: %+v", st)
	}
	if st.BreakerOpenNanos <= 0 {
		t.Fatalf("open time must be accounted: %+v", st)
	}
	if _, err := s.Search("n1", "healthy again", t0); err != nil {
		t.Fatalf("closed circuit must serve: %v", err)
	}
}

// TestSearchBudgetThreading: a caller budget smaller than the policy budget
// wins; zero/negative or oversized budgets fall back to the policy's.
func TestSearchBudgetThreading(t *testing.T) {
	eng := &countingEngine{delay: 60 * time.Millisecond}
	s := NewStack(eng, Policy{Timeout: time.Second, MaxInFlight: 4})

	start := time.Now()
	_, err := s.SearchBudget("n1", "tight budget", t0, 20*time.Millisecond)
	if !errors.Is(err, ErrEngineTimeout) {
		t.Fatalf("20ms budget against a 60ms engine: got %v, want timeout", err)
	}
	if e := time.Since(start); e > 500*time.Millisecond {
		t.Fatalf("threaded budget ignored: returned after %v", e)
	}

	if _, err := s.SearchBudget("n1", "default budget", t0, 0); err != nil {
		t.Fatalf("zero budget must mean the policy budget: %v", err)
	}
}

// delayEngine answers after a delay it reads off the query. Its one result
// names the query.
type delayEngine struct{}

func (delayEngine) Search(_, query string, _ time.Time) ([]searchengine.Result, error) {
	var delay time.Duration
	fmt.Sscanf(query, "%d", &delay) //nolint:errcheck // the test writes every query
	time.Sleep(delay)
	return []searchengine.Result{{URL: query}}, nil
}

// TestWatchdogRacesEngineReturn: 10k calls whose engine returns just before,
// at or just after the watchdog fires. Each call gets exactly one outcome:
// its own page, or a timeout no earlier than its wait. A frame reused while
// its timer could still fire would time the next call out early; one reused
// while its engine still ran would hand the next call the old page; a second
// outcome posted for one call would be received by a later call of the frame.
func TestWatchdogRacesEngineReturn(t *testing.T) {
	const callers, perCaller = 4, 2500
	s := NewStack(delayEngine{}, Policy{Timeout: time.Second, MaxInFlight: 64, BreakerMinSamples: 1 << 30})
	waits := []time.Duration{30 * time.Microsecond, 100 * time.Microsecond, 300 * time.Microsecond}
	var pages, timeouts atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				wait := waits[(c+i)%len(waits)]
				delay := wait/2 + time.Duration(i*7919%1000)*wait/1000
				query := fmt.Sprintf("%d caller %d call %d", delay, c, i)
				start := time.Now()
				results, err := s.SearchBudget("n1", query, t0, wait)
				elapsed := time.Since(start)
				switch {
				case err == nil:
					if len(results) != 1 || results[0].URL != query {
						errs <- fmt.Errorf("call %q got page %v", query, results)
						return
					}
					pages.Add(1)
				case errors.Is(err, ErrEngineTimeout):
					if elapsed < wait {
						errs <- fmt.Errorf("call %q timed out after %v, before its %v wait", query, elapsed, wait)
						return
					}
					timeouts.Add(1)
				default:
					errs <- fmt.Errorf("call %q: %v", query, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Successes != pages.Load() || st.Timeouts != timeouts.Load() || st.Calls != callers*perCaller || pages.Load()+timeouts.Load() != st.Calls {
		t.Fatalf("%d pages and %d timeouts received, stats %+v", pages.Load(), timeouts.Load(), st)
	}
	t.Logf("%d calls: %d pages, %d timeouts", st.Calls, pages.Load(), timeouts.Load())
	if pages.Load() == 0 || timeouts.Load() == 0 {
		t.Fatalf("the engine never raced the watchdog: %d pages, %d timeouts", pages.Load(), timeouts.Load())
	}
	for deadline := time.Now().Add(2 * time.Second); s.Stats().InFlight != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("abandoned calls never gave their slots back: %+v", s.Stats())
		}
	}
}

func TestPolicyValidate(t *testing.T) {
	good := Policy{Timeout: time.Second, MaxRetries: 2, BreakerThreshold: 0.5, MaxInFlight: 8}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	bad := []Policy{
		{Timeout: 0, MaxRetries: 2, BreakerThreshold: 0.5, MaxInFlight: 8},
		{Timeout: time.Second, MaxRetries: -1, BreakerThreshold: 0.5, MaxInFlight: 8},
		{Timeout: time.Second, MaxRetries: 2, BreakerThreshold: 0, MaxInFlight: 8},
		{Timeout: time.Second, MaxRetries: 2, BreakerThreshold: 1.5, MaxInFlight: 8},
		{Timeout: time.Second, MaxRetries: 2, BreakerThreshold: 0.5, MaxInFlight: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad policy %d accepted: %+v", i, p)
		}
	}
}

func TestFromWire(t *testing.T) {
	cases := []struct {
		msg  string
		want error // nil means "opaque, no class"
	}{
		{"", nil},
		{"engine-overloaded: 64 engine calls in flight", ErrEngineOverloaded},
		{"engine-timeout: 800ms budget exhausted", ErrEngineTimeout},
		{"engine-unavailable: circuit open", ErrEngineUnavailable},
		{"engine-timeout", ErrEngineTimeout},
		{"some upstream 503", nil},
	}
	for _, c := range cases {
		got := FromWire(c.msg)
		if c.msg == "" {
			if got != nil {
				t.Errorf("FromWire(%q) = %v, want nil", c.msg, got)
			}
			continue
		}
		if got == nil || got.Error() != c.msg {
			t.Errorf("FromWire(%q) must reproduce the message, got %v", c.msg, got)
			continue
		}
		for _, class := range []error{ErrEngineOverloaded, ErrEngineTimeout, ErrEngineUnavailable} {
			want := c.want != nil && errors.Is(class, c.want)
			if errors.Is(got, class) != want {
				t.Errorf("FromWire(%q): errors.Is(%v) = %v, want %v", c.msg, class, !want, want)
			}
		}
	}
}

// TestFaultyDeterminism: the same seed injects the same faults over the
// same call sequence, and the brownout toggle switches profiles.
func TestFaultyDeterminism(t *testing.T) {
	run := func() []bool {
		f := NewFaulty(FaultyConfig{Seed: 42, Brownout: BrownoutProfile{ErrorRate: 0.5}})
		f.SetBrownout(true)
		outcomes := make([]bool, 64)
		for i := range outcomes {
			_, err := f.Search("n1", fmt.Sprintf("q%d", i), t0)
			outcomes[i] = err != nil
		}
		return outcomes
	}
	a, b := run(), run()
	errs := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs across identical seeded runs", i)
		}
		if a[i] {
			errs++
		}
	}
	if errs == 0 || errs == len(a) {
		t.Fatalf("0.5 error rate drew %d/%d errors; draws look broken", errs, len(a))
	}

	f := NewFaulty(FaultyConfig{Seed: 42, Brownout: BrownoutProfile{ErrorRate: 1}})
	if _, err := f.Search("n1", "healthy", t0); err != nil {
		t.Fatalf("healthy profile is perfect by default: %v", err)
	}
	f.SetBrownout(true)
	if !f.browned.Load() {
		t.Fatal("SetBrownout(true) did not switch the brownout profile on")
	}
	if _, err := f.Search("n1", "browned", t0); err == nil {
		t.Fatal("brownout at ErrorRate 1 must fail")
	}
	if injErrs, _ := f.Injected(); injErrs != 1 {
		t.Fatalf("injected errors = %d, want 1", injErrs)
	}
}

// TestFaultyHang: a hang draw stalls for the profile's duration (the
// watchdog above is what keeps this from wedging a relay).
func TestFaultyHang(t *testing.T) {
	f := NewFaulty(FaultyConfig{Seed: 7, Brownout: BrownoutProfile{HangRate: 1, Hang: 30 * time.Millisecond}})
	f.SetBrownout(true)
	start := time.Now()
	_, err := f.Search("n1", "stall", t0)
	if err == nil {
		t.Fatal("a hung call must error")
	}
	if e := time.Since(start); e < 30*time.Millisecond {
		t.Fatalf("hang returned after %v, want >= 30ms", e)
	}
	if _, hangs := f.Injected(); hangs != 1 {
		t.Fatalf("injected hangs = %d, want 1", hangs)
	}
}
