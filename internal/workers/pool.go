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
	run      func(T)
	jobs     chan T // unbuffered: a send succeeds only into a parked worker
	stop     chan struct{}
	stopOnce sync.Once
	spawned  *telemetry.Counter
	live     atomic.Int64
}

// New builds a pool whose workers call run on each job. name is the value
// of the pool label on cyclosa_workers_spawned_total; pools of one name
// share the counter.
func New[T any](name string, run func(T)) *Pool[T] {
	return &Pool[T]{
		run:     run,
		jobs:    make(chan T),
		stop:    make(chan struct{}),
		spawned: spawnedTotal.With(name),
	}
}

// Go runs job on an idle worker if one is parked, and on a new worker
// otherwise. It never blocks and never queues.
func (p *Pool[T]) Go(job T) {
	select {
	case p.jobs <- job:
	default:
		p.spawned.Inc()
		p.live.Add(1)
		go p.worker(job)
	}
}

// Stop makes every idle worker exit now and every busy one after its job.
// Go still works afterwards (the job runs on a goroutine that does not
// linger). Pools that are never stopped drain by themselves: each worker
// exits within two lingers of its last job.
func (p *Pool[T]) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
}

// Live returns the number of worker goroutines that exist right now.
func (p *Pool[T]) Live() int { return int(p.live.Load()) }

// Spawned returns how many goroutines the pools named name have started.
func Spawned(name string) uint64 { return spawnedTotal.With(name).Value() }

func (p *Pool[T]) worker(job T) {
	defer p.live.Add(-1)
	p.run(job)
	t := GetTimer(Linger)
	defer PutTimer(t)
	for busy := false; ; {
		select {
		case next := <-p.jobs:
			p.run(next)
			busy = true
		case <-t.C:
			if !busy {
				return
			}
			busy = false
			t.Reset(Linger)
		case <-p.stop:
			return
		}
	}
}
