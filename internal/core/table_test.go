package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cyclosa/internal/enclave"
	"cyclosa/internal/testutil"
)

// refTable is the past-query table as a []string FIFO: the reference the
// byte ring must match entry for entry, draw for draw.
type refTable struct {
	entries []string
	next    int
	full    bool
	epc     *enclave.EPC
	bytes   int64
}

func newRefTable(size int, epc *enclave.EPC) *refTable {
	if size <= 0 {
		size = DefaultTableSize
	}
	return &refTable{entries: make([]string, 0, size), epc: epc}
}

func (t *refTable) Add(query string) {
	if query == "" {
		return
	}
	cost := int64(len(query))
	if t.full {
		old := t.entries[t.next]
		t.entries[t.next] = query
		t.next = (t.next + 1) % cap(t.entries)
		if t.epc != nil {
			t.epc.Free(int64(len(old)))
			t.epc.Alloc(cost)
		}
		t.bytes += cost - int64(len(old))
		return
	}
	t.entries = append(t.entries, query)
	if len(t.entries) == cap(t.entries) {
		t.full = true
		t.next = 0
	}
	if t.epc != nil {
		t.epc.Alloc(cost)
	}
	t.bytes += cost
}

func (t *refTable) Sample(rng *rand.Rand, n int) []string {
	if len(t.entries) == 0 || n <= 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = t.entries[rng.Intn(len(t.entries))]
	}
	return out
}

// checkRing asserts the ring's own invariants: the oldest entry starts at
// the arena head, and the live bytes are exactly the entries' bytes.
func checkRing(t *testing.T, tbl *PastQueryTable) {
	t.Helper()
	tbl.mu.Lock()
	defer tbl.mu.Unlock()
	total := 0
	for _, s := range tbl.slots {
		total += int(s.n)
	}
	if total != tbl.used || tbl.used > len(tbl.arena) {
		t.Fatalf("ring holds %d entry bytes, used %d, arena %d", total, tbl.used, len(tbl.arena))
	}
	oldest := 0
	if tbl.full {
		oldest = tbl.next
	}
	if len(tbl.slots) > 0 && int(tbl.slots[oldest].off) != tbl.head {
		t.Fatalf("oldest entry at %d, arena head at %d", tbl.slots[oldest].off, tbl.head)
	}
}

// TestPastQueryTableMatchesReference drives the byte ring and the []string
// FIFO through the same adds — empty ones, an 8 KiB query, enough to wrap
// both rings many times, arena growth, a bootstrap batch — and compares
// everything observable after each step: Len, Bytes, Snapshot, the EPC
// charge and Sample for the same rng.
func TestPastQueryTableMatchesReference(t *testing.T) {
	for _, size := range []int{1, 3, 16, 200} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			gotEPC, refEPC := enclave.NewEPC(1<<30), enclave.NewEPC(1<<30)
			tbl, ref := NewPastQueryTable(size, gotEPC), newRefTable(size, refEPC)
			src := rand.New(rand.NewSource(int64(size)))
			step := 0
			compare := func(what string) {
				t.Helper()
				step++
				checkRing(t, tbl)
				if tbl.Len() != len(ref.entries) || tbl.Bytes() != ref.bytes || gotEPC.Used() != refEPC.Used() {
					t.Fatalf("step %d (%s): Len %d Bytes %d EPC %d, reference %d %d %d", step, what,
						tbl.Len(), tbl.Bytes(), gotEPC.Used(), len(ref.entries), ref.bytes, refEPC.Used())
				}
				if got := tbl.Snapshot(); !slices.Equal(got, ref.entries) {
					t.Fatalf("step %d (%s): Snapshot differs from the reference", step, what)
				}
				seed := src.Int63()
				for _, n := range []int{0, 1, 7} {
					got := tbl.Sample(rand.New(rand.NewSource(seed)), n)
					want := ref.Sample(rand.New(rand.NewSource(seed)), n)
					if !slices.Equal(got, want) || (got == nil) != (want == nil) {
						t.Fatalf("step %d (%s): Sample(%d) = %q, reference %q", step, what, n, got, want)
					}
				}
			}
			add := func(q, what string) {
				tbl.Add([]byte(q))
				ref.Add(q)
				compare(what)
			}
			compare("empty table")
			add("", "empty add")
			add("first query", "first add")
			add(strings.Repeat("x", maxWireQueryLen), "8 KiB query")
			add("", "empty add when not empty")
			for i := 0; i < 3*size+40; i++ {
				q := fmt.Sprintf("query %d %s", i, strings.Repeat("w", src.Intn(60)))
				add(q, "wrap")
			}
			for i := 0; i < size+2; i++ {
				add(strings.Repeat(string(rune('a'+i%26)), 1000+src.Intn(3000)), "grow")
			}
			batch := make([]string, 2*size+5)
			for i := range batch {
				batch[i] = fmt.Sprintf("trending %d", i)
			}
			batch[3] = ""
			tbl.AddAll(batch)
			for _, q := range batch {
				ref.Add(q)
			}
			compare("bootstrap")
			for i := 0; i < 2*size; i++ {
				add(fmt.Sprintf("after bootstrap %d", i), "after bootstrap")
			}
		})
	}
}

// TestPastQueryTableWarmAllocs: at steady state recording a relayed query
// and drawing a search's fakes into its scratch allocate nothing.
func TestPastQueryTableWarmAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	tbl := NewPastQueryTable(64, enclave.NewEPC(1<<20))
	query := []byte("a relayed query of usual length")
	for i := 0; i < 200; i++ {
		tbl.Add(query) // fill, wrap, size the arena
	}
	if n := testing.AllocsPerRun(500, func() { tbl.Add(query) }); n != 0 {
		t.Errorf("warm Add allocates %.1f times, want 0", n)
	}
	rng := rand.New(rand.NewSource(1))
	buf, spans := make([]byte, 0, 1024), make([]span, 0, 8)
	if n := testing.AllocsPerRun(500, func() {
		buf, spans = tbl.appendSample(buf[:0], spans[:0], rng, 7)
	}); n != 0 {
		t.Errorf("warm sample of 7 fakes allocates %.1f times, want 0", n)
	}
}

func TestPastQueryTableBasics(t *testing.T) {
	tbl := NewPastQueryTable(4, nil)
	if tbl.Len() != 0 {
		t.Fatal("new table not empty")
	}
	rng := rand.New(rand.NewSource(1))
	if tbl.Sample(rng, 3) != nil {
		t.Error("empty table Sample should be nil")
	}
	tbl.Add([]byte("q one"))
	tbl.Add(nil)
	if tbl.Len() != 1 {
		t.Errorf("Len = %d, want 1 (empty ignored)", tbl.Len())
	}
	if got := tbl.Sample(rng, 1); len(got) != 1 || got[0] != "q one" {
		t.Errorf("Sample = %q", got)
	}
}

func TestPastQueryTableFIFOEviction(t *testing.T) {
	tbl := NewPastQueryTable(3, nil)
	tbl.AddAll([]string{"a", "b", "c"})
	if tbl.Len() != 3 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	tbl.Add([]byte("d")) // evicts "a"
	if tbl.Len() != 3 {
		t.Fatalf("Len after eviction = %d", tbl.Len())
	}
	rng := rand.New(rand.NewSource(2))
	seen := make(map[string]bool)
	for _, q := range tbl.Sample(rng, 200) {
		seen[q] = true
	}
	if seen["a"] {
		t.Error("evicted entry still sampled")
	}
	for _, want := range []string{"b", "c", "d"} {
		if !seen[want] {
			t.Errorf("entry %q never sampled", want)
		}
	}
	tbl.Add([]byte("e")) // evicts "b"
	for _, q := range tbl.Sample(rng, 200) {
		if q == "b" {
			t.Fatal("second eviction failed")
		}
	}
}

func TestPastQueryTableSampleWithReplacement(t *testing.T) {
	tbl := NewPastQueryTable(8, nil)
	tbl.Add([]byte("only"))
	rng := rand.New(rand.NewSource(3))
	s := tbl.Sample(rng, 5)
	if len(s) != 5 {
		t.Fatalf("Sample len = %d", len(s))
	}
	for _, q := range s {
		if q != "only" {
			t.Errorf("sample entry = %q", q)
		}
	}
	if tbl.Sample(rng, 0) != nil {
		t.Error("Sample(0) should be nil")
	}
}

func TestPastQueryTableEPCAccounting(t *testing.T) {
	epc := enclave.NewEPC(1 << 20)
	tbl := NewPastQueryTable(2, epc)
	tbl.Add([]byte("12345"))      // 5 bytes
	tbl.Add([]byte("1234567890")) // 10 bytes
	if epc.Used() != 15 {
		t.Errorf("EPC used = %d, want 15", epc.Used())
	}
	if tbl.Bytes() != 15 {
		t.Errorf("Bytes = %d, want 15", tbl.Bytes())
	}
	tbl.Add([]byte("123")) // evicts "12345": 15 - 5 + 3 = 13
	if epc.Used() != 13 {
		t.Errorf("EPC used after eviction = %d, want 13", epc.Used())
	}
	if tbl.Bytes() != 13 {
		t.Errorf("Bytes after eviction = %d, want 13", tbl.Bytes())
	}
}

func TestPastQueryTableDefaultSize(t *testing.T) {
	tbl := NewPastQueryTable(0, nil)
	for i := 0; i < DefaultTableSize+10; i++ {
		tbl.Add([]byte("query"))
	}
	if tbl.Len() != DefaultTableSize {
		t.Errorf("Len = %d, want %d", tbl.Len(), DefaultTableSize)
	}
}
