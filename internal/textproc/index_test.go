package textproc

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cyclosa/internal/testutil"
)

// referenceScan is the entry-by-entry definition SimilarityIndex must match
// bit for bit: the cosine of the query with every recorded vector, folded by
// exponentialSmoothing. With maxSize > 0 it keeps the most recent maxSize.
type referenceScan struct {
	maxSize int
	history []vector
}

func (r *referenceScan) add(query string) {
	v := newVector(query)
	if len(v) == 0 {
		return
	}
	r.history = append(r.history, v)
	if r.maxSize > 0 && len(r.history) > r.maxSize {
		r.history = r.history[len(r.history)-r.maxSize:]
	}
}

func (r *referenceScan) score(query string, alpha float64) float64 {
	v := newVector(query)
	if len(v) == 0 || len(r.history) == 0 {
		return 0
	}
	sims := make([]float64, len(r.history))
	for i, h := range r.history {
		sims[i] = vectorCosine(v, h)
	}
	return exponentialSmoothing(sims, alpha)
}

// randomQuery draws 1–6 words from a vocabulary of the given size; a small
// vocabulary makes most entries share a term with most queries, a large one
// almost none. Some draws repeat a word, add stop words or change case.
func randomQuery(rng *rand.Rand, vocabulary int) string {
	words := make([]string, 1+rng.Intn(6))
	for i := range words {
		words[i] = fmt.Sprintf("w%d", rng.Intn(vocabulary))
	}
	switch rng.Intn(6) {
	case 0:
		words = append(words, words[0], words[0])
	case 1:
		words = append(words, "the", "of")
	case 2:
		words[0] = strings.ToUpper(words[0])
	}
	return strings.Join(words, " ")
}

func checkSameScore(t *testing.T, ix *SimilarityIndex, ref *referenceScan, query string, alpha float64) {
	t.Helper()
	got, want := ix.Score(Tokenize(query), alpha), ref.score(query, alpha)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Score(%q, alpha=%v) over %d entries = %v (%#x), reference scan %v (%#x)",
			query, alpha, ix.Len(), got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// The indexed score is the scan's score to the last bit, whatever share of
// the entries the query touches and whether or not the index evicts.
func TestSimilarityIndexMatchesScan(t *testing.T) {
	for _, tc := range []struct {
		name       string
		vocabulary int
		maxSize    int
	}{
		{"sparse: almost every similarity is zero", 5000, 0},
		{"mixed", 60, 0},
		{"dense: every entry shares a term", 3, 0},
		{"bounded sparse", 5000, 40},
		{"bounded dense", 8, 40},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.vocabulary)*31 + int64(tc.maxSize)))
			ix, ref := NewSimilarityIndex(tc.maxSize), &referenceScan{maxSize: tc.maxSize}
			for i := 0; i < 400; i++ {
				added := randomQuery(rng, tc.vocabulary)
				ix.Add(Tokenize(added))
				ref.add(added)
				if ix.Len() != len(ref.history) {
					t.Fatalf("after %d adds Len = %d, reference holds %d", i+1, ix.Len(), len(ref.history))
				}
				for _, alpha := range []float64{0.1, DefaultSmoothingAlpha, 1} {
					checkSameScore(t, ix, ref, added, alpha)
					checkSameScore(t, ix, ref, randomQuery(rng, tc.vocabulary), alpha)
				}
			}
		})
	}
}

func TestSimilarityIndexEdgeQueries(t *testing.T) {
	ix, ref := NewSimilarityIndex(0), &referenceScan{}
	for _, q := range []string{"", "the of and", "kidney kidney kidney"} {
		checkSameScore(t, ix, ref, q, DefaultSmoothingAlpha) // empty index
	}
	for _, q := range []string{"kidney dialysis treatment", "", "the of", "kidney transplant", "Kidney KIDNEY dialysis"} {
		ix.Add(Tokenize(q))
		ref.add(q)
	}
	if ix.Len() != 3 {
		t.Errorf("Len = %d, want 3: queries without terms are not recorded", ix.Len())
	}
	for _, q := range []string{
		"",                      // no terms
		"the of and",            // stop words only
		"kidney kidney kidney",  // duplicates count once; touches every entry
		"kidney",                // all similarities non-zero
		"dialysis the dialysis", // duplicates around a stop word
		"pizza recipe",          // all similarities zero
	} {
		checkSameScore(t, ix, ref, q, DefaultSmoothingAlpha)
	}
}

// A long history of a user who repeats themself: thousands of entries with a
// handful of distinct similarities, so each is folded in many times over —
// past the point where the fold stops moving, which for a small alpha takes
// hundreds of steps and for alpha = 1 takes one.
func TestSimilarityIndexRepeatedEntries(t *testing.T) {
	ix, ref := NewSimilarityIndex(0), &referenceScan{}
	repeated := []string{"kidney", "kidney dialysis", "kidney dialysis treatment", "dialysis cost", "pizza"}
	for i := 0; i < 3000; i++ {
		q := repeated[i%len(repeated)]
		ix.Add(Tokenize(q))
		ref.add(q)
	}
	for _, alpha := range []float64{0.01, 0.1, DefaultSmoothingAlpha, 0.9, 1} {
		for _, q := range []string{"kidney", "kidney dialysis", "dialysis treatment cost", "kidney pizza dialysis cost treatment", "recipe"} {
			checkSameScore(t, ix, ref, q, alpha)
		}
	}
}

// Eviction takes an entry off every posting list it was on: after many times
// maxSize adds the index holds postings for the live entries only.
func TestSimilarityIndexEvictionPrunesPostings(t *testing.T) {
	const maxSize = 32
	rng := rand.New(rand.NewSource(9))
	ix := NewSimilarityIndex(maxSize)
	for i := 0; i < 10*maxSize; i++ {
		ix.Add(Tokenize(randomQuery(rng, 100000))) // nearly every term is new
	}
	if ix.Len() != maxSize {
		t.Fatalf("Len = %d, want %d", ix.Len(), maxSize)
	}
	liveTerms := 0
	for _, entry := range ix.entries {
		liveTerms += len(entry)
	}
	postings := 0
	for term, list := range ix.postings {
		if len(list) == 0 {
			t.Errorf("term %q keeps an empty posting list", term)
		}
		postings += len(list)
	}
	if postings != liveTerms {
		t.Errorf("%d postings for %d terms of live entries", postings, liveTerms)
	}
	if len(ix.postings) > liveTerms {
		t.Errorf("%d posting lists for %d terms of live entries", len(ix.postings), liveTerms)
	}
}

// Score's scratch grows with the index in a few steps. Sized to the entry
// count exactly, it would be reallocated — the size of the whole history — by
// every Score that follows an Add, which is every search of a node.
func TestSimilarityIndexScoreOnGrowingIndexAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	rng := rand.New(rand.NewSource(4))
	ix := NewSimilarityIndex(0)
	for i := 0; i < 20000; i++ {
		ix.Add(Tokenize(randomQuery(rng, 400)))
	}
	added, scored := Tokenize("w1 w2 w3"), Tokenize("w1 w4")
	const rounds = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		ix.Add(added)
		ix.Score(scored, DefaultSmoothingAlpha)
	}
	runtime.ReadMemStats(&after)
	// The adds account for well under 1 KiB each; one scratch is 80 KiB.
	if perRound := (after.TotalAlloc - before.TotalAlloc) / rounds; perRound > 4096 {
		t.Errorf("Add then Score allocates %d B per round on a 20000-entry index, want <= 4096", perRound)
	}
}

// Score works out of pooled scratch: nothing is allocated per call.
func TestSimilarityIndexScoreAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	rng := rand.New(rand.NewSource(3))
	ix := NewSimilarityIndex(0)
	for i := 0; i < 600; i++ {
		ix.Add(Tokenize(randomQuery(rng, 400)))
	}
	terms := Tokenize("w1 w2 w3 w1")
	ix.Score(terms, DefaultSmoothingAlpha) // sizes the scratch
	if n := testing.AllocsPerRun(200, func() { ix.Score(terms, DefaultSmoothingAlpha) }); n != 0 {
		t.Errorf("Score allocates %.1f times per call, want 0", n)
	}
}
