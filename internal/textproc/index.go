package textproc

import (
	"cmp"
	"math"
	"slices"
	"sync"
)

// SimilarityIndex answers the question both §V-A2's linkability assessment
// and SimAttack ask of a set of past queries: the exponential smoothing of
// the ranked cosine similarities between a query and every recorded entry.
//
// Almost every entry shares no term with a given query, and a similarity of
// exactly 0 folds to exactly 0 at the front of the ascending smoothing. So
// instead of comparing the query with each entry, the index keeps a posting
// list per term and scores only the entries that appear on the query's
// lists. The result is bit-identical to the entry-by-entry scan (cosine per
// entry, exponential smoothing over all of them, as in the tests' reference
// scan).
//
// With maxSize > 0 the index keeps the most recent maxSize entries. Score
// may be called from several goroutines at once; Add needs exclusive access.
type SimilarityIndex struct {
	maxSize int
	// entries holds each recorded query's distinct terms, by slot. Bounded
	// indexes reuse slots as a ring starting at oldest; the terms are kept
	// so that eviction can take the entry off its posting lists.
	entries [][]string
	oldest  int32
	// postings lists, per term, the slots whose entry contains it, in
	// insertion order.
	postings map[string][]int32
	// maxEntry is the largest number of distinct terms an entry ever had.
	maxEntry int
}

// NewSimilarityIndex creates an empty index; maxSize <= 0 keeps every entry.
func NewSimilarityIndex(maxSize int) *SimilarityIndex {
	return &SimilarityIndex{maxSize: maxSize, postings: make(map[string][]int32)}
}

// Len returns the number of recorded entries.
func (ix *SimilarityIndex) Len() int { return len(ix.entries) }

// Add records the binary term vector of one tokenized query. A query with no
// terms is not recorded.
func (ix *SimilarityIndex) Add(terms []string) {
	distinct := appendDistinct(nil, terms)
	if len(distinct) == 0 {
		return
	}
	ix.maxEntry = max(ix.maxEntry, len(distinct))
	slot := int32(len(ix.entries))
	if ix.maxSize > 0 && len(ix.entries) == ix.maxSize {
		slot = ix.oldest
		ix.oldest = (ix.oldest + 1) % int32(ix.maxSize)
		ix.evict(slot)
		ix.entries[slot] = distinct
	} else {
		ix.entries = append(ix.entries, distinct)
	}
	for _, t := range distinct {
		ix.postings[t] = append(ix.postings[t], slot)
	}
}

// evict takes the entry in slot off its posting lists. Only the oldest entry
// is ever evicted and lists are in insertion order, so it heads each list it
// is on; append reclaims the dropped head when the list next grows.
func (ix *SimilarityIndex) evict(slot int32) {
	for _, t := range ix.entries[slot] {
		if list := ix.postings[t]; len(list) > 1 {
			ix.postings[t] = list[1:]
		} else {
			delete(ix.postings, t)
		}
	}
}

// Score returns the exponential smoothing, with factor alpha, of the ranked
// cosine similarities between the tokenized query and every entry. An empty
// index or a query with no terms scores 0.
func (ix *SimilarityIndex) Score(terms []string, alpha float64) float64 {
	if len(terms) == 0 || len(ix.entries) == 0 {
		return 0
	}
	sc := scoreScratchPool.Get().(*scoreScratch)
	defer sc.release()
	sc.query = appendDistinct(sc.query[:0], terms)

	// shared[slot] counts the query terms entry slot contains; it is all
	// zero between calls, and touched lists the slots to reset. Sizing it by
	// the capacity of entries lets it grow in the same few steps entries
	// does, not on every call that follows an Add.
	if len(sc.shared) < len(ix.entries) {
		sc.shared = make([]int32, cap(ix.entries))
	}
	for _, t := range sc.query {
		for _, slot := range ix.postings[t] {
			if sc.shared[slot] == 0 {
				sc.touched = append(sc.touched, slot)
			}
			sc.shared[slot]++
		}
	}
	if len(sc.touched) == 0 {
		return 0
	}

	// Entries with the same size that share the same number of terms with
	// the query have the same similarity, and a long history has thousands
	// of touched entries but a handful of such pairs: count the entries per
	// pair, so that one similarity is computed and ranked per pair, not per
	// entry. bySize[size] heads the list of the groups of that entry size.
	if len(sc.bySize) <= ix.maxEntry {
		sc.bySize = make([]int32, ix.maxEntry+1)
	}
	for _, slot := range sc.touched {
		shared, size := sc.shared[slot], len(ix.entries[slot])
		sc.shared[slot] = 0
		g := sc.bySize[size]
		for g != 0 && sc.groups[g-1].shared != shared {
			g = sc.groups[g-1].next
		}
		if g == 0 {
			sc.groups = append(sc.groups, simGroup{
				sim:    cosine(int(shared), len(sc.query), size),
				shared: shared,
				size:   int32(size),
				next:   sc.bySize[size],
			})
			g = int32(len(sc.groups))
			sc.bySize[size] = g
		}
		sc.groups[g-1].n++
	}
	for i := range sc.groups {
		sc.bySize[sc.groups[i].size] = 0
	}
	slices.SortFunc(sc.groups, func(a, b simGroup) int { return cmp.Compare(a.sim, b.sim) })

	// The fold starts from the lowest similarity. Entries not touched rank
	// first with similarity 0 and smooth to exactly 0.
	s := 0.0
	if len(sc.touched) == len(ix.entries) {
		s = sc.groups[0].sim
		sc.groups[0].n--
	}
	for _, g := range sc.groups {
		s = smoothRepeated(s, g.sim, int(g.n), alpha)
	}
	return s
}

// simGroup is the touched entries of one size that share one number of terms
// with the query, and so have one similarity to it.
type simGroup struct {
	sim          float64
	n            int32
	shared, size int32
	next         int32 // 1-based index of the next group of this size; 0 ends the list
}

// scoreScratch is the per-call working memory of Score.
type scoreScratch struct {
	query   []string
	shared  []int32
	touched []int32
	bySize  []int32
	groups  []simGroup
}

var scoreScratchPool = sync.Pool{New: func() any { return new(scoreScratch) }}

// release returns the scratch to the pool, dropping the query strings it
// would otherwise keep alive.
func (sc *scoreScratch) release() {
	clear(sc.query[:cap(sc.query)])
	sc.touched = sc.touched[:0]
	sc.groups = sc.groups[:0]
	scoreScratchPool.Put(sc)
}

// appendDistinct appends the distinct terms of a query to dst, sorted.
func appendDistinct(dst, terms []string) []string {
	dst = append(dst, terms...)
	slices.Sort(dst)
	return slices.Compact(dst)
}

// cosine is the cosine similarity of two binary term vectors of na and nb
// distinct terms that share inter of them.
func cosine(inter, na, nb int) float64 {
	if inter == 0 {
		return 0
	}
	return float64(inter) / (math.Sqrt(float64(na)) * math.Sqrt(float64(nb)))
}
