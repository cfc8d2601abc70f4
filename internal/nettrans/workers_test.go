package nettrans

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyclosa/internal/workers"
)

// meetConduit echoes, but makes its first two deliveries wait for each
// other, so two dispatch workers exist for certain.
type meetConduit struct {
	echoConduit
	calls atomic.Int32
	met   chan struct{}
}

func (c *meetConduit) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	switch c.calls.Add(1) {
	case 1:
		<-c.met
	case 2:
		close(c.met)
	}
	return c.echoConduit.Deliver(from, to, payload, now)
}

// TestServerDispatchWorkersReusedAndReaped: a warm server serves a run of
// exchanges without starting a goroutine, and Close leaves no dispatch
// worker behind — at once, not a linger later.
func TestServerDispatchWorkersReusedAndReaped(t *testing.T) {
	srv := startEchoServer(t, ServerConfig{Handler: &meetConduit{met: make(chan struct{})}})
	addr := srv.Addr().String()
	p := NewPool(PoolConfig{})
	defer p.Close()

	// Warm-up with overlap, so more workers are parked than a one-at-a-time
	// run can find busy.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, buf, err := echoRoundTrip(t, p, addr, "warm"); err != nil {
				t.Error(err)
			} else {
				putFrame(buf)
			}
		}()
	}
	wg.Wait()
	time.Sleep(10 * time.Millisecond)
	if srv.workers.Live() < 2 {
		t.Fatalf("%d dispatch workers after two overlapping exchanges, want 2", srv.workers.Live())
	}

	before := workers.Spawned("dispatch")
	for i := 0; i < 200; i++ {
		_, buf, err := echoRoundTrip(t, p, addr, "steady")
		if err != nil {
			t.Fatal(err)
		}
		putFrame(buf)
	}
	if got := workers.Spawned("dispatch") - before; got != 0 {
		t.Fatalf("200 exchanges on a warm server started %d goroutines, want 0", got)
	}

	srv.Close()
	for deadline := time.Now().Add(workers.Linger / 5); srv.workers.Live() != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d dispatch workers still live after Close", srv.workers.Live())
		}
	}
}
