package nettrans

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// waiter is whoever gets a stream's result: a RoundTrip blocked on ch, or
// a submitted record (see TCPConduit.Submit). Exactly one of the two is set.
type waiter struct {
	ch    chan callResult
	async *asyncCall
}

// resolve hands the stream's one result to its owner. Neither form blocks:
// ch has room for it, and an asyncCall posts on a channel whose room the
// submitter guarantees.
func (w waiter) resolve(res callResult) {
	if w.ch != nil {
		w.ch <- res
		return
	}
	w.async.complete(res)
}

// streamTable is the multiplexing core of a pooled connection (one shard of
// its shardedStreamTable): it assigns stream IDs to pending calls, routes
// one result to each waiter, and fails everything on teardown. The concurrency
// invariants live here once — a result is delivered to at most one owner
// (waiter, late-drop, timeout, or teardown), whoever removes the stream from
// the table first.
type streamTable struct {
	mu      sync.Mutex
	pend    map[uint64]waiter
	next    uint64
	dead    bool
	deadErr error
}

// register assigns the next stream ID to a new pending call.
func (st *streamTable) register(w waiter) (uint64, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dead {
		return 0, st.deadErr
	}
	if st.pend == nil {
		st.pend = make(map[uint64]waiter)
	}
	st.next++
	id := st.next
	st.pend[id] = w
	mStreamsInFlight.Inc()
	return id, nil
}

// unregister removes and returns the stream's waiter — false when already
// claimed (delivered, failed, or timed out). The caller owns what it gets
// back: it alone may resolve it.
func (st *streamTable) unregister(id uint64) (waiter, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	w, ok := st.pend[id]
	if ok {
		delete(st.pend, id)
		mStreamsInFlight.Dec()
	}
	return w, ok
}

// deliver routes a result to its waiter; false means no one is waiting
// (the caller keeps ownership of the result).
func (st *streamTable) deliver(id uint64, res callResult) bool {
	w, ok := st.unregister(id)
	if ok {
		w.resolve(res)
	}
	return ok
}

// expire claims every submitted record whose deadline (unix nanos) is not
// after now and appends it to out; the caller completes them. A blocked
// RoundTrip keeps its own timer and is left alone.
func (st *streamTable) expire(now int64, out []*asyncCall) []*asyncCall {
	st.mu.Lock()
	defer st.mu.Unlock()
	for id, w := range st.pend {
		if w.async != nil && w.async.deadline <= now {
			delete(st.pend, id)
			mStreamsInFlight.Dec()
			out = append(out, w.async)
		}
	}
	return out
}

// close marks the table dead (register fails with err from here on) and
// fails every pending stream with err. It reports whether this call was the
// one that killed the table, so one-shot teardown side effects can key off
// it. Idempotent.
func (st *streamTable) close(err error) bool {
	st.mu.Lock()
	if st.dead {
		st.mu.Unlock()
		return false
	}
	st.dead = true
	st.deadErr = err
	pend := st.pend
	st.pend = nil
	mStreamsInFlight.Add(-int64(len(pend)))
	st.mu.Unlock()
	for _, w := range pend {
		w.resolve(callResult{err: err})
	}
	return true
}

// alive reports whether the table still accepts new streams.
func (st *streamTable) alive() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return !st.dead
}

// idle reports whether no streams are pending.
func (st *streamTable) idle() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.pend) == 0
}

// shardedStreamTable spreads one logical stream table over P independent
// shards so register/deliver under high concurrency don't serialize on one
// mutex. The shard index is packed into the low bits of the stream ID
// (id = local<<shardBits | shard), so routing an inbound result touches
// only its own shard. Semantics match streamTable: at-most-one delivery
// per stream, idempotent teardown.
type shardedStreamTable struct {
	shards    []streamTable
	mask      uint64
	shardBits uint
	rr        atomic.Uint64 // round-robin register cursor
	dead      atomic.Bool
}

// defaultStreamShards sizes a sharded table to the core count, bounded so
// tiny per-conn tables don't fragment into dozens of near-empty maps.
func defaultStreamShards() int {
	n := runtime.GOMAXPROCS(0)
	if n > 16 {
		n = 16
	}
	if n < 1 {
		n = 1
	}
	return n
}

// newShardedStreamTable builds a table with at least n shards (rounded up
// to a power of two so routing is a mask).
func newShardedStreamTable(n int) *shardedStreamTable {
	p := 1
	bits := uint(0)
	for p < n {
		p <<= 1
		bits++
	}
	return &shardedStreamTable{
		shards:    make([]streamTable, p),
		mask:      uint64(p - 1),
		shardBits: bits,
	}
}

// register assigns a stream on the next shard round-robin.
func (st *shardedStreamTable) register(w waiter) (uint64, error) {
	shard := st.rr.Add(1) & st.mask
	local, err := st.shards[shard].register(w)
	if err != nil {
		return 0, err
	}
	return local<<st.shardBits | shard, nil
}

// unregister removes and returns the stream's waiter — false when already
// claimed.
func (st *shardedStreamTable) unregister(id uint64) (waiter, bool) {
	return st.shards[id&st.mask].unregister(id >> st.shardBits)
}

// deliver routes a result to its waiter; false means no one is waiting.
func (st *shardedStreamTable) deliver(id uint64, res callResult) bool {
	return st.shards[id&st.mask].deliver(id>>st.shardBits, res)
}

// expire claims the submitted records of every shard that are due at now.
func (st *shardedStreamTable) expire(now int64, out []*asyncCall) []*asyncCall {
	for i := range st.shards {
		out = st.shards[i].expire(now, out)
	}
	return out
}

// close fails every shard. The one-shot "this call killed the table"
// return is decided by an atomic CAS at this level, so exactly one
// concurrent closer runs the teardown side effects even when two callers
// race into different shards.
func (st *shardedStreamTable) close(err error) bool {
	killed := st.dead.CompareAndSwap(false, true)
	for i := range st.shards {
		st.shards[i].close(err)
	}
	return killed
}

// alive reports whether the table still accepts new streams.
func (st *shardedStreamTable) alive() bool {
	return !st.dead.Load()
}

// idle reports whether no streams are pending on any shard.
func (st *shardedStreamTable) idle() bool {
	for i := range st.shards {
		if !st.shards[i].idle() {
			return false
		}
	}
	return true
}
