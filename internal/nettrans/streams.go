package nettrans

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// streamTable is the multiplexing core of a pooled connection (one shard of
// its shardedStreamTable): it assigns stream IDs to pending calls, routes
// one result to each waiter, and fails everything on teardown. The concurrency
// invariants live here once — a result is delivered to at most one owner
// (waiter, late-drop, or teardown), whoever removes the stream from the
// table first.
type streamTable[T any] struct {
	mu      sync.Mutex
	pend    map[uint64]chan T
	next    uint64
	dead    bool
	deadErr error
}

// register assigns the next stream ID to a new pending call. The returned
// channel has capacity 1 so delivery never blocks the reader.
func (st *streamTable[T]) register() (uint64, chan T, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dead {
		return 0, nil, st.deadErr
	}
	if st.pend == nil {
		st.pend = make(map[uint64]chan T)
	}
	st.next++
	id := st.next
	ch := make(chan T, 1)
	st.pend[id] = ch
	mStreamsInFlight.Inc()
	return id, ch, nil
}

// unregister removes and returns the pending channel for a stream — nil
// when already claimed (delivered, failed, or timed out). The caller owns
// whatever it gets back.
func (st *streamTable[T]) unregister(id uint64) chan T {
	st.mu.Lock()
	defer st.mu.Unlock()
	ch := st.pend[id]
	if ch != nil {
		delete(st.pend, id)
		mStreamsInFlight.Dec()
	}
	return ch
}

// deliver routes a result to its waiter; false means no one is waiting
// (the caller keeps ownership of the result).
func (st *streamTable[T]) deliver(id uint64, v T) bool {
	ch := st.unregister(id)
	if ch == nil {
		return false
	}
	ch <- v
	return true
}

// close marks the table dead (register fails with err from here on) and
// fails every pending stream with mk(err). It reports whether this call
// was the one that killed the table, so one-shot teardown side effects can
// key off it. Idempotent.
func (st *streamTable[T]) close(err error, mk func(error) T) bool {
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
	for _, ch := range pend {
		ch <- mk(err)
	}
	return true
}

// alive reports whether the table still accepts new streams.
func (st *streamTable[T]) alive() bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return !st.dead
}

// idle reports whether no streams are pending.
func (st *streamTable[T]) idle() bool {
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
type shardedStreamTable[T any] struct {
	shards    []streamTable[T]
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
func newShardedStreamTable[T any](n int) *shardedStreamTable[T] {
	p := 1
	bits := uint(0)
	for p < n {
		p <<= 1
		bits++
	}
	return &shardedStreamTable[T]{
		shards:    make([]streamTable[T], p),
		mask:      uint64(p - 1),
		shardBits: bits,
	}
}

// register assigns a stream on the next shard round-robin.
func (st *shardedStreamTable[T]) register() (uint64, chan T, error) {
	shard := st.rr.Add(1) & st.mask
	local, ch, err := st.shards[shard].register()
	if err != nil {
		return 0, nil, err
	}
	return local<<st.shardBits | shard, ch, nil
}

// unregister removes and returns the pending channel for a stream — nil
// when already claimed.
func (st *shardedStreamTable[T]) unregister(id uint64) chan T {
	return st.shards[id&st.mask].unregister(id >> st.shardBits)
}

// deliver routes a result to its waiter; false means no one is waiting.
func (st *shardedStreamTable[T]) deliver(id uint64, v T) bool {
	return st.shards[id&st.mask].deliver(id>>st.shardBits, v)
}

// close fails every shard. The one-shot "this call killed the table"
// return is decided by an atomic CAS at this level, so exactly one
// concurrent closer runs the teardown side effects even when two callers
// race into different shards.
func (st *shardedStreamTable[T]) close(err error, mk func(error) T) bool {
	killed := st.dead.CompareAndSwap(false, true)
	for i := range st.shards {
		st.shards[i].close(err, mk)
	}
	return killed
}

// alive reports whether the table still accepts new streams.
func (st *shardedStreamTable[T]) alive() bool {
	return !st.dead.Load()
}

// idle reports whether no streams are pending on any shard.
func (st *shardedStreamTable[T]) idle() bool {
	for i := range st.shards {
		if !st.shards[i].idle() {
			return false
		}
	}
	return true
}
