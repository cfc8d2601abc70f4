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
// one-at-a-time jobs never finds the pool empty: the job goes to the worker
// that just finished if it has parked again, and to the spare if not.
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

// waitParked polls until the pool has want parked workers.
func waitParked[T any](t *testing.T, p *Pool[T], want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := len(idleStack(p))
		if n == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d workers parked, want %d", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// idleStack copies the pool's stack of parked workers, bottom first.
func idleStack[T any](p *Pool[T]) []*idleWorker[T] {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*idleWorker[T](nil), p.idle...)
}

// never is a janitor period no test outlives: the tests below tick the
// janitor through sweep, not through the clock.
const never = time.Hour

// TestPoolWorkersExpire: an idle worker survives the first janitor tick
// after its last job and ends at the second, and a worker that gets a job
// between every two ticks outlives any number of them.
func TestPoolWorkersExpire(t *testing.T) {
	ran := make(chan struct{}, 1)
	p := newPool("test-expire", func(struct{}) { ran <- struct{}{} }, never)
	defer p.Stop()
	before := Spawned("test-expire")
	for i := 0; i < 4; i++ {
		if i > 0 {
			p.sweep()
		}
		p.Go(struct{}{})
		<-ran
		waitParked(t, p, 1)
	}
	if got := Spawned("test-expire") - before; got != 1 {
		t.Fatalf("a job between every two ticks started %d goroutines, want 1 (worker expired while in use)", got)
	}
	p.sweep()
	if p.Live() != 1 {
		t.Fatalf("%d workers live one tick after the last job, want 1", p.Live())
	}
	p.sweep()
	waitLive(t, p, 0, time.Second)
}

// TestPoolExpiryBetweenOneAndTwoTicks: a tick ends exactly the workers that
// were parked at the previous one, and leaves those that parked since.
func TestPoolExpiryBetweenOneAndTwoTicks(t *testing.T) {
	release := make(chan struct{})
	p := newPool("test-ticks", func(block chan struct{}) { <-block }, never)
	defer p.Stop()
	// Two workers: the first parks before a tick, the second after it.
	first := make(chan struct{})
	p.Go(first)
	p.Go(release)
	close(first)
	waitParked(t, p, 1)
	early := idleStack(p)[0]
	p.sweep()
	close(release)
	waitParked(t, p, 2)

	p.sweep() // ends the first worker only
	waitLive(t, p, 1, time.Second)
	if got := idleStack(p); len(got) != 1 || got[0] == early {
		t.Fatal("the tick ended the worker that parked after the previous tick")
	}
	p.sweep() // and now the second
	waitLive(t, p, 0, time.Second)
}

// TestPoolJanitorClock: on the real clock a worker is gone between one and
// two janitor periods after its last job.
func TestPoolJanitorClock(t *testing.T) {
	const linger = 40 * time.Millisecond
	ran := make(chan struct{}, 1)
	p := newPool("test-clock", func(struct{}) { ran <- struct{}{} }, linger)
	defer p.Stop()
	p.Go(struct{}{})
	<-ran
	parked := time.Now()
	for p.Live() != 0 {
		if time.Since(parked) > 2*time.Second {
			t.Fatalf("worker still live %v after its last job", time.Since(parked))
		}
		time.Sleep(time.Millisecond)
	}
	if gone := time.Since(parked); gone < linger {
		t.Fatalf("worker gone %v after its last job, before one period (%v)", gone, linger)
	}
}

// TestPoolLIFO: the most recently parked worker takes the next job, and
// parks on top again when it is done, so the ones below age undisturbed.
func TestPoolLIFO(t *testing.T) {
	release := [3]chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	p := newPool("test-lifo", func(block chan struct{}) { <-block }, never)
	defer p.Stop()
	for _, r := range release {
		p.Go(r)
	}
	for i, r := range release {
		close(r)
		waitParked(t, p, i+1)
	}
	stack := idleStack(p)
	for i := 0; i < 20; i++ {
		block := make(chan struct{})
		p.Go(block)
		if got := idleStack(p); len(got) != 2 || got[0] != stack[0] || got[1] != stack[1] {
			t.Fatal("Go did not take the top of the idle stack")
		}
		close(block)
		waitParked(t, p, 3)
		if got := idleStack(p); got[2] != stack[2] {
			t.Fatal("the next job went to a worker other than the most recently parked")
		}
	}
}

// TestPoolTickStartsNoGoroutine: a janitor tick at the moment a job is
// handed over takes no recently used worker out of reach, so the job starts
// no goroutine, however the two interleave.
func TestPoolTickStartsNoGoroutine(t *testing.T) {
	ran := make(chan struct{}, 1)
	p := newPool("test-tick-race", func(struct{}) { ran <- struct{}{} }, never)
	defer p.Stop()
	p.Go(struct{}{})
	<-ran
	waitParked(t, p, 1)
	before := Spawned("test-tick-race")
	for i := 0; i < 500; i++ {
		// Park the worker after the latest tick, as a worker in use is.
		p.Go(struct{}{})
		<-ran
		waitParked(t, p, 1)
		ticked := make(chan struct{})
		go func() {
			p.sweep()
			close(ticked)
		}()
		p.Go(struct{}{})
		<-ran
		<-ticked
		waitParked(t, p, 1)
	}
	if got := Spawned("test-tick-race") - before; got != 0 {
		t.Fatalf("jobs handed over at a tick started %d goroutines, want 0", got)
	}
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
