package accounting

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cyclosa/internal/testutil"
)

type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestNewLimiterValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  LimiterConfig
		ok   bool
	}{
		{"valid", LimiterConfig{QPS: 10, Burst: 5}, true},
		{"zero qps", LimiterConfig{QPS: 0, Burst: 5}, false},
		{"negative qps", LimiterConfig{QPS: -1, Burst: 5}, false},
		{"nan qps", LimiterConfig{QPS: nan(), Burst: 5}, false},
		{"inf qps", LimiterConfig{QPS: inf(), Burst: 5}, false},
		{"zero burst", LimiterConfig{QPS: 10, Burst: 0}, false},
		{"negative burst", LimiterConfig{QPS: 10, Burst: -3}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewLimiter(tc.cfg)
			if (err == nil) != tc.ok {
				t.Fatalf("NewLimiter(%+v) err=%v, want ok=%v", tc.cfg, err, tc.ok)
			}
		})
	}
}

func nan() float64 { z := 0.0; return z / z }
func inf() float64 { z := 0.0; return 1 / z }

func TestLimiterBurstThenThrottle(t *testing.T) {
	clk := newFakeClock()
	l, err := NewLimiter(LimiterConfig{QPS: 10, Burst: 3, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Allow("alice"); err != nil {
			t.Fatalf("request %d: unexpected throttle: %v", i, err)
		}
	}
	if err := l.Allow("alice"); !errors.Is(err, ErrClientThrottled) {
		t.Fatalf("want ErrClientThrottled after burst, got %v", err)
	}
	// An unrelated client has its own bucket.
	if err := l.Allow("bob"); err != nil {
		t.Fatalf("bob should be admitted: %v", err)
	}
	st := l.Stats()
	if st.Admitted != 4 || st.Throttled != 1 {
		t.Fatalf("stats = %+v, want 4 admitted / 1 throttled", st)
	}
	if st.Clients != 2 {
		t.Fatalf("stats.Clients = %d, want 2", st.Clients)
	}
}

func TestLimiterRefill(t *testing.T) {
	clk := newFakeClock()
	l, err := NewLimiter(LimiterConfig{QPS: 10, Burst: 5, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.Allow("c"); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Allow("c"); !errors.Is(err, ErrClientThrottled) {
		t.Fatalf("want throttle, got %v", err)
	}
	// 200ms at 10 qps refills 2 tokens.
	clk.Advance(200 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if err := l.Allow("c"); err != nil {
			t.Fatalf("after refill, request %d: %v", i, err)
		}
	}
	if err := l.Allow("c"); !errors.Is(err, ErrClientThrottled) {
		t.Fatalf("want throttle after spending refill, got %v", err)
	}
	// A long idle period caps at burst, not unbounded accrual.
	clk.Advance(time.Hour)
	for i := 0; i < 5; i++ {
		if err := l.Allow("c"); err != nil {
			t.Fatalf("after long idle, request %d: %v", i, err)
		}
	}
	if err := l.Allow("c"); !errors.Is(err, ErrClientThrottled) {
		t.Fatalf("burst cap not enforced after idle: %v", err)
	}
}

func TestLimiterEviction(t *testing.T) {
	clk := newFakeClock()
	l, err := NewLimiter(LimiterConfig{QPS: 100, Burst: 2, MaxClients: limiterShards, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	// MaxClients = one bucket per shard; a flood of distinct IDs must not
	// grow tracking beyond the cap.
	for i := 0; i < 500; i++ {
		l.Allow(fmt.Sprintf("client-%d", i))
	}
	st := l.Stats()
	if st.Clients > limiterShards {
		t.Fatalf("tracked clients %d exceeds cap %d", st.Clients, limiterShards)
	}
	if st.Evicted == 0 {
		t.Fatal("expected evictions under ID flood")
	}
}

func TestLimiterConcurrent(t *testing.T) {
	l, err := NewLimiter(LimiterConfig{QPS: 1000, Burst: 50})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("g%d", g)
			for i := 0; i < 200; i++ {
				l.Allow(id)
			}
		}(g)
	}
	wg.Wait()
	st := l.Stats()
	if st.Admitted+st.Throttled != 8*200 {
		t.Fatalf("admitted %d + throttled %d != 1600", st.Admitted, st.Throttled)
	}
}

// TestLimiterAllowAllocs pins the admission edge's share of the forward hot
// path: for a client the limiter already tracks, Allow allocates nothing,
// whether it admits or throttles.
func TestLimiterAllowAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	const runs = 1000
	for _, tc := range []struct {
		name  string
		burst int
		want  error
	}{
		{"admitted", 2 * runs, nil},
		{"throttled", 1, ErrClientThrottled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The clock stands still, so the bucket never refills.
			l, err := NewLimiter(LimiterConfig{QPS: 10, Burst: tc.burst, Now: newFakeClock().Now})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Allow("alice"); err != nil {
				t.Fatal(err)
			}
			n := testing.AllocsPerRun(runs, func() {
				if err := l.Allow("alice"); err != tc.want {
					t.Fatalf("Allow = %v, want %v", err, tc.want)
				}
			})
			if n > 0 {
				t.Errorf("Limiter.Allow allocates %.1f times per op on the %s branch, want 0", n, tc.name)
			}
		})
	}
}
