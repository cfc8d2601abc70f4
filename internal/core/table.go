// Package core implements the CYCLOSA node (§IV, §V): the browser-extension
// client that assesses query sensitivity and spreads the real query plus k
// adaptive fake queries over distinct relays, and the enclave-hosted relay
// that records forwarded queries (the fake-query source material), forwards
// them to the search engine over a secure channel and routes answers back.
//
// Every component that touches other users' queries runs behind the
// (simulated) enclave call gate; components that touch only the local
// user's data — the sensitivity analysis — run outside, minimizing trusted
// code exactly as the paper argues (§IV).
package core

import (
	"math/rand"
	"sync"

	"cyclosa/internal/enclave"
)

// DefaultTableSize bounds the enclave-resident past-query table. The paper
// keeps the whole enclave at 1.7 MB to avoid EPC paging; a few thousand
// short queries fit comfortably.
const DefaultTableSize = 4096

// minArena is the first size of a table's byte arena.
const minArena = 1 << 10

// span locates one query in a byte buffer: buf[off : off+n].
type span struct{ off, n uint32 }

// PastQueryTable is the enclave-resident store of queries this node has
// relayed for other users, used as the source of fake queries (§V-C). It is
// a bounded FIFO: once full, the oldest entry is evicted. Every payload byte
// is accounted against the enclave's EPC model.
//
// The table holds no Go string and no pointer: one slot per entry, in
// insertion-ring order, locates its bytes in a byte arena that is itself a
// ring. Entries are written at the arena's tail in insertion order, so the
// oldest entry — the one the next eviction frees — always starts at its
// head; an entry may wrap around the arena's end. The arena doubles when a
// new entry does not fit beside the live ones and never shrinks.
type PastQueryTable struct {
	mu    sync.Mutex
	slots []span // len = stored entries, cap = the bound; offsets into arena
	next  int    // once full, the slot the next Add overwrites (the oldest)
	full  bool
	arena []byte // power-of-two length
	head  int    // arena offset of the oldest entry's first byte
	used  int    // live payload bytes, from head
	epc   *enclave.EPC
}

// NewPastQueryTable creates a table bounded to size entries (DefaultTableSize
// if size <= 0), charging memory to the given EPC model (nil disables
// accounting).
func NewPastQueryTable(size int, epc *enclave.EPC) *PastQueryTable {
	if size <= 0 {
		size = DefaultTableSize
	}
	return &PastQueryTable{slots: make([]span, 0, size), epc: epc}
}

// Add records a relayed query, copying its bytes into the table. Empty
// queries are ignored.
func (t *PastQueryTable) Add(query []byte) { addQuery(t, query) }

// AddAll records a batch of queries (the Google-Trends bootstrap, §V-D).
func (t *PastQueryTable) AddAll(queries []string) {
	for _, q := range queries {
		addQuery(t, q)
	}
}

func addQuery[Q string | []byte](t *PastQueryTable, query Q) {
	if len(query) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cost := int64(len(query))
	var freed int64
	if t.full {
		old := t.slots[t.next]
		t.head = (t.head + int(old.n)) & (len(t.arena) - 1)
		t.used -= int(old.n)
		freed = int64(old.n)
	}
	if t.used+len(query) > len(t.arena) {
		t.grow(len(query))
	}
	off := (t.head + t.used) & (len(t.arena) - 1)
	if n := copy(t.arena[off:], query); n < len(query) {
		copy(t.arena, query[n:])
	}
	t.used += len(query)
	s := span{uint32(off), uint32(len(query))}
	if t.full {
		t.slots[t.next] = s
		t.next = (t.next + 1) % cap(t.slots)
	} else {
		t.slots = append(t.slots, s)
		if len(t.slots) == cap(t.slots) {
			t.full = true
			t.next = 0
		}
	}
	if t.epc != nil {
		if freed > 0 {
			t.epc.Free(freed)
		}
		t.epc.Alloc(cost)
	}
}

// grow doubles the arena until need more bytes fit beside the live ones,
// moving the live bytes to its start. Caller holds t.mu.
func (t *PastQueryTable) grow(need int) {
	size := max(2*len(t.arena), minArena)
	for size < t.used+need {
		size *= 2
	}
	arena := make([]byte, size)
	if n := copy(arena[:t.used], t.arena[t.head:]); n < t.used {
		copy(arena[n:t.used], t.arena)
	}
	if old := len(t.arena); old > 0 {
		for i := range t.slots {
			t.slots[i].off = uint32((int(t.slots[i].off) - t.head) & (old - 1))
		}
	}
	t.arena, t.head = arena, 0
}

// appendEntry appends entry i's bytes to dst. Caller holds t.mu.
func (t *PastQueryTable) appendEntry(dst []byte, i int) []byte {
	s := t.slots[i]
	end := int(s.off) + int(s.n)
	if end <= len(t.arena) {
		return append(dst, t.arena[s.off:end]...)
	}
	dst = append(dst, t.arena[s.off:]...)
	return append(dst, t.arena[:end-len(t.arena)]...)
}

// Len returns the number of stored queries.
func (t *PastQueryTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.slots)
}

// Bytes returns the stored payload size (the EPC footprint of the table).
func (t *PastQueryTable) Bytes() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return int64(t.used)
}

// Snapshot returns a copy of all stored queries in insertion-ring order.
func (t *PastQueryTable) Snapshot() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.slots))
	var buf []byte
	for i := range t.slots {
		buf = t.appendEntry(buf[:0], i)
		out[i] = string(buf)
	}
	return out
}

// Sample returns up to n random stored queries (with replacement when the
// table is smaller than n; fake queries may legitimately repeat). It draws
// exactly as appendSample does; the strings share one allocation, and a
// usual draw needs no other scratch than the stack's.
func (t *PastQueryTable) Sample(rng *rand.Rand, n int) []string {
	var bytes [256]byte
	var spans [8]span
	buf, picks := t.appendSample(bytes[:0], spans[:0], rng, n)
	if len(picks) == 0 {
		return nil
	}
	all := string(buf)
	out := make([]string, len(picks))
	for i, s := range picks {
		out[i] = all[s.off : s.off+s.n]
	}
	return out
}

// appendSample is Sample without a string: it appends n random stored
// queries to dst and their spans in the returned buffer to spans, one
// rng.Intn draw per query. An empty table or n <= 0 draws nothing.
func (t *PastQueryTable) appendSample(dst []byte, spans []span, rng *rand.Rand, n int) ([]byte, []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.slots) == 0 || n <= 0 {
		return dst, spans
	}
	for i := 0; i < n; i++ {
		off := len(dst)
		dst = t.appendEntry(dst, rng.Intn(len(t.slots)))
		spans = append(spans, span{uint32(off), uint32(len(dst) - off)})
	}
	return dst, spans
}
