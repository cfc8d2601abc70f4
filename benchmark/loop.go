package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/searchengine"
)

// benchNow is the protocol time of every untraced op: one constant, so no
// layer that is handed `now` (engine admission, latency accounting) sees the
// benchmark's own clock.
var benchNow = traceEpoch.Add(-time.Second)

// wallCap fails a run that has no -seconds limit of its own.
const wallCap = 120 * time.Second

// opFunc performs one operation. A forward returns a nil result.
type opFunc func(o *op, now time.Time) (*core.SearchResult, error)

// counters are the layers' own public counters, read before and after the
// measured window.
type counters struct {
	requests     uint64 // core.Network.RequestCount
	engineServed uint64 // canned engine
	fakesSent    uint64 // core.NodeStats, summed over nodes
	blacklisted  uint64
	engineFailed uint64
	gateCalls    uint64 // enclave ecalls + ocalls, summed over nodes
	shed         uint64 // backend.Stats, summed over nodes
	retries      uint64
	flushes      uint64 // nettrans write stats, conduit + servers
	frames       uint64
	wireBytes    uint64
}

func (s *sut) counters(wd *world) counters {
	c := counters{requests: s.net.RequestCount()}
	if wd.engine != nil {
		c.engineServed = wd.engine.served.Load()
	}
	for _, n := range s.nodes {
		st := n.Stats()
		c.fakesSent += st.FakesSent
		c.blacklisted += st.Blacklisted
		c.engineFailed += st.EngineFailed
		es := n.Enclave().Stats()
		c.gateCalls += es.ECalls + es.OCalls
		if bs, ok := n.BackendStats(); ok {
			c.shed += bs.Shed
			c.retries += bs.Retries
		}
	}
	if s.tcp != nil {
		ws := s.tcp.WriteStats()
		c.flushes, c.frames, c.wireBytes = ws.Flushes, ws.Frames, ws.Bytes
		for _, srv := range s.servers {
			ws := srv.WriteStats()
			c.flushes += ws.Flushes
			c.frames += ws.Frames
			c.wireBytes += ws.Bytes
		}
	}
	return c
}

func (a counters) minus(b counters) counters {
	return counters{
		requests:     a.requests - b.requests,
		engineServed: a.engineServed - b.engineServed,
		fakesSent:    a.fakesSent - b.fakesSent,
		blacklisted:  a.blacklisted - b.blacklisted,
		engineFailed: a.engineFailed - b.engineFailed,
		gateCalls:    a.gateCalls - b.gateCalls,
		shed:         a.shed - b.shed,
		retries:      a.retries - b.retries,
		flushes:      a.flushes - b.flushes,
		frames:       a.frames - b.frames,
		wireBytes:    a.wireBytes - b.wireBytes,
	}
}

// window is what one measured window produced.
type window struct {
	ops, failed int
	firstErr    error
	wall        time.Duration
	cpu         time.Duration
	mallocs     uint64
	allocBytes  uint64
	sumK        int64
	lat         [][]int64 // per client, completion order, ns
	delta       counters
}

// run is one workload's plan bound to a system under test.
type run struct {
	w     *workload
	wd    *world
	sched *schedule
	sut   *sut
	// tr is set on the traced run; realRelay then receives, per op index,
	// the relay that carried the real query.
	tr        *tracer
	realRelay []int16
}

// opBase is the global index of client c's first measured op.
func (r *run) opBase(c int) int {
	base := 0
	for i := 0; i < c; i++ {
		base += len(r.sched.measured[i])
	}
	return base
}

// clientOf maps every measured op index to the node that issues it.
func (r *run) clientOf() []int32 {
	var out []int32
	for _, ops := range r.sched.measured {
		for i := range ops {
			out = append(out, ops[i].node)
		}
	}
	return out
}

// realOp is the operation under test.
func (r *run) realOp(o *op, now time.Time) (*core.SearchResult, error) {
	node := r.sut.nodes[o.node]
	if r.w.kind == opForward {
		return nil, r.sut.net.RelayRoundTrip(node, r.sut.ids[r.sched.relay], o.query, now)
	}
	return node.Search(o.query, now)
}

// verify applies the per-op checks. A failure is counted, never fatal: the
// run finishes and reports failed_share.
func (r *run) verify(o *op, res *core.SearchResult, err error) error {
	if err != nil {
		return err
	}
	if r.w.kind == opForward {
		return nil
	}
	if res.EngineError != nil {
		return fmt.Errorf("engine error: %w", res.EngineError)
	}
	// Protection was not silently shrunk.
	if res.K != res.Assessment.K {
		return fmt.Errorf("k shrunk: sent %d fakes, assessed %d", res.K, res.Assessment.K)
	}
	// The paper's accuracy claim: the user gets exactly the real query's
	// page, never a fake's and never a mix.
	var want []searchengine.Result
	if r.w.adaptive {
		want = r.wd.engine.truthFor(o.query)
	}
	if !equalPages(res.Results, want) {
		return fmt.Errorf("results of %q differ from the engine's direct results", o.query)
	}
	return nil
}

func equalPages(a, b []searchengine.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.DocID != y.DocID || x.Score != y.Score || x.URL != y.URL || x.Title != y.Title || len(x.Terms) != len(y.Terms) {
			return false
		}
		for t := range x.Terms {
			if x.Terms[t] != y.Terms[t] {
				return false
			}
		}
	}
	return true
}

// warmup runs the unmeasured head of every client's stream.
func (r *run) warmup() error {
	errs := make([]error, r.w.clients)
	var wg sync.WaitGroup
	for c := range r.sched.warmup {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range r.sched.warmup[c] {
				o := &r.sched.warmup[c][i]
				res, err := r.realOp(o, benchNow)
				if err := r.verify(o, res, err); err != nil && errs[c] == nil {
					errs[c] = fmt.Errorf("warm-up op %d on node %d: %w", i, o.node, err)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// measure runs the closed loop: every client walks its precomputed stream,
// one op in flight, until the stream ends or limit elapses (limit 0 = the
// whole stream, under wallCap). do is the operation; the no-op self-check
// passes a stand-in.
func (r *run) measure(limit time.Duration, do opFunc) (*window, error) {
	win := &window{lat: make([][]int64, r.w.clients)}
	for c := range win.lat {
		win.lat[c] = make([]int64, 0, len(r.sched.measured[c]))
	}
	type tally struct {
		failed   int
		sumK     int64
		firstErr error
	}
	tallies := make([]tally, r.w.clients)
	timed := limit > 0
	if !timed {
		limit = wallCap
	}

	runtime.GC() // every window starts from a collected heap
	var ms0, ms1 runtime.MemStats
	var ru0, ru1 syscall.Rusage
	before := r.sut.counters(r.wd)
	runtime.ReadMemStats(&ms0)
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru0); err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(limit)
	ends := make([]time.Time, r.w.clients)
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops := r.sched.measured[c]
			base := r.opBase(c)
			t := &tallies[c]
			lat := win.lat[c]
			last := start
			for i := range ops {
				o := &ops[i]
				now := benchNow
				var spanStart int64
				if r.tr != nil {
					now = nowFor(base + i)
					spanStart = r.tr.clock()
				}
				res, err := do(o, now)
				if r.tr != nil {
					r.tr.record(spanSearch, now, "", spanStart)
					if res != nil {
						r.realRelay[base+i] = r.tr.index[res.RealRelay]
					}
				}
				if err := r.verify(o, res, err); err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = fmt.Errorf("op %d on node %d: %w", base+i, o.node, err)
					}
				} else if res != nil {
					t.sumK += int64(res.K)
				}
				// One clock read per op: in a closed loop the gap between
				// consecutive completions is the op's latency.
				end := time.Now()
				lat = append(lat, int64(end.Sub(last)))
				last = end
				if end.After(deadline) {
					break
				}
			}
			win.lat[c] = lat
			ends[c] = last
		}(c)
	}
	wg.Wait()

	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru1); err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	win.delta = r.sut.counters(r.wd).minus(before)

	for c := range tallies {
		win.ops += len(win.lat[c])
		win.failed += tallies[c].failed
		win.sumK += tallies[c].sumK
		if win.firstErr == nil {
			win.firstErr = tallies[c].firstErr
		}
		if d := ends[c].Sub(start); d > win.wall {
			win.wall = d
		}
	}
	win.cpu = rusageCPU(&ru1) - rusageCPU(&ru0)
	win.mallocs = ms1.Mallocs - ms0.Mallocs
	win.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if !timed && win.wall >= wallCap {
		return win, fmt.Errorf("%s: measured window hit the %v wall-clock cap", r.w.name, wallCap)
	}
	return win, nil
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// noopOp stands in for the operation in the harness self-check: it returns
// what a correct search would, so verify does its full work.
func (r *run) noopOp() opFunc {
	results := make([]core.SearchResult, r.w.clients)
	return func(o *op, _ time.Time) (*core.SearchResult, error) {
		if r.w.kind == opForward {
			return nil, nil
		}
		res := &results[int(o.node)%r.w.clients]
		if r.w.adaptive {
			res.Results = r.wd.engine.truthFor(o.query)
		}
		return res, nil
	}
}
