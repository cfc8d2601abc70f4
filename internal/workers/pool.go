package workers

import (
	"sync"
	"sync/atomic"
	"time"

	"cyclosa/internal/telemetry"
)

// Linger is how long an idle worker waits for another job before exiting.
const Linger = 500 * time.Millisecond

var spawnedTotal = telemetry.Default().CounterVec(
	"cyclosa_workers_spawned_total",
	"Goroutines started by a lingering-worker pool because no idle worker was parked; flat under steady load means workers are reused.",
	"pool")

// Pool runs jobs on lingering goroutines. Build one with New; the zero
// value is not usable.
type Pool[T any] struct {
	run     func(T)
	linger  time.Duration
	spawned *telemetry.Counter
	live    atomic.Int64

	mu sync.Mutex
	// idle is the stack of parked workers, the most recently parked on
	// top. Each was parked at a janitor tick no later than the one above
	// it, so the workers the janitor ends are always a bottom slice.
	idle    []*idleWorker[T]
	stopped bool
	// tick counts the janitor's firings; janitor is armed exactly while
	// idle is not empty (armed says so).
	tick    uint64
	janitor *time.Timer
	armed   bool
}

// idleWorker is one worker's parking spot: Go hands it a job through jobs,
// the janitor and Stop close jobs to end it.
type idleWorker[T any] struct {
	jobs   chan T // one slot: the send into a popped worker never blocks
	parked uint64 // the pool's tick when the worker parked
}

// New builds a pool whose workers call run on each job. name is the value
// of the pool label on cyclosa_workers_spawned_total; pools of one name
// share the counter.
func New[T any](name string, run func(T)) *Pool[T] {
	return newPool(name, run, Linger)
}

// newPool is New with the janitor's period chosen: tests pass one that
// never fires and drive the ticks through sweep.
func newPool[T any](name string, run func(T), linger time.Duration) *Pool[T] {
	return &Pool[T]{run: run, linger: linger, spawned: spawnedTotal.With(name)}
}

// Go runs job on the most recently parked worker if one is parked, and on a
// new worker otherwise. It never blocks and never queues.
func (p *Pool[T]) Go(job T) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		w := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		w.jobs <- job
		return
	}
	p.mu.Unlock()
	p.spawned.Inc()
	p.live.Add(1)
	go p.work(job)
}

// Stop makes every idle worker exit now and every busy one after its job.
// Go still works afterwards (the job runs on a goroutine that does not
// linger). Pools that are never stopped drain by themselves: each worker
// exits within two lingers of its last job.
func (p *Pool[T]) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.stopped = true
	p.endIdle(len(p.idle))
	if p.armed {
		p.janitor.Stop()
		p.armed = false
	}
}

// Live returns the number of worker goroutines that exist right now.
func (p *Pool[T]) Live() int { return int(p.live.Load()) }

// Spawned returns how many goroutines the pools named name have started.
func Spawned(name string) uint64 { return spawnedTotal.With(name).Value() }

func (p *Pool[T]) work(job T) {
	defer p.live.Add(-1)
	w := &idleWorker[T]{jobs: make(chan T, 1)}
	for ok := true; ok; job, ok = p.park(w) {
		p.run(job)
	}
}

// park puts w on top of the idle stack and waits for its next job; false
// means the worker is to exit (the janitor or Stop ended it, or the pool
// was already stopped).
func (p *Pool[T]) park(w *idleWorker[T]) (T, bool) {
	p.mu.Lock()
	if p.stopped {
		p.mu.Unlock()
		var zero T
		return zero, false
	}
	w.parked = p.tick
	p.idle = append(p.idle, w)
	if !p.armed {
		p.armed = true
		if p.janitor == nil {
			p.janitor = time.AfterFunc(p.linger, p.sweep)
		} else {
			p.janitor.Reset(p.linger)
		}
	}
	p.mu.Unlock()
	job, ok := <-w.jobs
	return job, ok
}

// sweep is one janitor tick: it ends the workers that were already parked
// at the previous tick — idle for at least one linger and at most two — and
// re-arms while any worker is left idle.
func (p *Pool[T]) sweep() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return
	}
	p.tick++
	n := 0
	for n < len(p.idle) && p.idle[n].parked+1 < p.tick {
		n++
	}
	p.endIdle(n)
	if len(p.idle) > 0 {
		p.janitor.Reset(p.linger)
	} else {
		p.armed = false
	}
}

// endIdle ends the n workers at the bottom of the idle stack (mu held).
func (p *Pool[T]) endIdle(n int) {
	for _, w := range p.idle[:n] {
		close(w.jobs)
	}
	rest := copy(p.idle, p.idle[n:])
	clear(p.idle[rest:])
	p.idle = p.idle[:rest]
}
