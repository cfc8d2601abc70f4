package workers

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyclosa/internal/testutil"
)

// waitLive polls until the pool has want live workers or the wait is over.
func waitLive[T any](t *testing.T, p *Pool[T], want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for p.Live() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d workers live after %v, want %d", p.Live(), within, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// warm leaves the pool with n idle workers: n jobs that overlap, then a
// pause for the workers to park. With a spare worker parked, a sequence of
// one-at-a-time jobs never finds the pool empty — the job goes to the worker
// parked longest, and the one that just finished has a whole job to park in.
func warm[T any](t *testing.T, p *Pool[T], n int, blocking T, release chan struct{}) {
	t.Helper()
	for i := 0; i < n; i++ {
		p.Go(blocking)
	}
	close(release)
	time.Sleep(20 * time.Millisecond)
	if p.Live() != n {
		t.Fatalf("warm-up left %d workers, want %d", p.Live(), n)
	}
}

// TestPoolReusesIdleWorker: one-at-a-time jobs run on the workers that are
// already there, and the spawn counter shows it.
func TestPoolReusesIdleWorker(t *testing.T) {
	done := make(chan int)
	release := make(chan struct{})
	p := New("test-reuse", func(i int) {
		if i < 0 {
			<-release
			return
		}
		done <- i
	})
	defer p.Stop()
	warm(t, p, 2, -1, release)
	before := Spawned("test-reuse")
	for i := 0; i < 200; i++ {
		p.Go(i)
		if got := <-done; got != i {
			t.Fatalf("job %d ran as %d", i, got)
		}
	}
	if got := Spawned("test-reuse") - before; got != 0 {
		t.Fatalf("200 sequential jobs started %d goroutines, want 0", got)
	}
}

// TestPoolNeverQueues: with every worker blocked, a new job still starts at
// once on a goroutine of its own.
func TestPoolNeverQueues(t *testing.T) {
	release := make(chan struct{})
	ran := make(chan struct{}, 1)
	p := New("test-noqueue", func(block bool) {
		if block {
			<-release
			return
		}
		ran <- struct{}{}
	})
	defer p.Stop()
	const blocked = 8
	for i := 0; i < blocked; i++ {
		p.Go(true)
	}
	p.Go(false)
	select {
	case <-ran:
	case <-time.After(2 * time.Second):
		t.Fatal("a job waited behind blocked workers")
	}
	if p.Live() != blocked+1 {
		t.Fatalf("%d workers live, want %d", p.Live(), blocked+1)
	}
	close(release)
}

// TestPoolWorkersExpire: an idle worker is gone within two lingers of its
// last job (the lazy idle check needs one timer period to notice the job and
// one more to see none), and a worker that keeps getting jobs outlives many.
func TestPoolWorkersExpire(t *testing.T) {
	p := New("test-expire", func(struct{}) {})
	before := Spawned("test-expire")
	// Keep one worker busy across three timer periods: it must not exit.
	for end := time.Now().Add(3 * Linger); time.Now().Before(end); {
		p.Go(struct{}{})
		time.Sleep(Linger / 5)
	}
	if got := Spawned("test-expire") - before; got != 1 {
		t.Fatalf("a job every %v started %d goroutines, want 1 (worker expired while in use)", Linger/5, got)
	}
	if p.Live() != 1 {
		t.Fatalf("%d workers live, want 1", p.Live())
	}
	waitLive(t, p, 0, 2*Linger+Linger/2)
}

// TestPoolStop: Stop reaps idle workers at once, a busy one as soon as its
// job ends, and a later Go still runs its job without leaving a worker.
func TestPoolStop(t *testing.T) {
	release := make(chan struct{})
	ran := make(chan struct{}, 4)
	p := New("test-stop", func(block bool) {
		if block {
			<-release
		}
		ran <- struct{}{}
	})
	p.Go(false)
	p.Go(false)
	<-ran
	<-ran
	p.Go(true)
	p.Stop()
	p.Stop()                    // idempotent
	waitLive(t, p, 1, Linger/5) // the idle ones left long before a linger
	close(release)
	<-ran
	waitLive(t, p, 0, Linger/5)
	p.Go(false)
	<-ran
	waitLive(t, p, 0, Linger/5)
}

// TestPoolGoAllocs: handing a job to a parked worker allocates nothing,
// whatever the job value holds.
func TestPoolGoAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	type job struct {
		a, b string
		out  chan struct{}
	}
	out := make(chan struct{})
	release := make(chan struct{})
	p := New("test-allocs", func(j job) {
		if j.out == nil {
			<-release
			return
		}
		j.out <- struct{}{}
	})
	defer p.Stop()
	warm(t, p, 2, job{}, release)
	allocs := testing.AllocsPerRun(200, func() {
		p.Go(job{a: "x", b: "y", out: out})
		<-out
	})
	if allocs != 0 {
		t.Fatalf("Go on a warm pool: %.1f allocs/op, want 0", allocs)
	}
}

// TestPoolHammer runs bursts separated by pauses around the linger, so
// workers expire while other goroutines are handing jobs over. Every job
// must run exactly once. Meant for -race.
func TestPoolHammer(t *testing.T) {
	var ran atomic.Int64
	p := New("test-hammer", func(n *atomic.Int64) { n.Add(1) })
	const goroutines, rounds = 32, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := 0; i < 50; i++ {
					p.Go(&ran)
				}
				// Spread the pauses over [linger/2, 3·linger/2): some
				// workers expire during them, some are caught mid-expiry.
				time.Sleep(Linger/2 + time.Duration(g)*Linger/goroutines)
			}
		}(g)
	}
	wg.Wait()
	waitLive(t, p, 0, 2*Linger+Linger/2)
	if got, want := ran.Load(), int64(goroutines*rounds*50); got != want {
		t.Fatalf("%d jobs ran, want %d", got, want)
	}
}
