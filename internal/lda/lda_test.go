package lda

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"cyclosa/internal/queries"
)

// twoClusterCorpus builds a corpus with two disjoint vocabularies; a K=2
// model must separate them.
func twoClusterCorpus(rng *rand.Rand, docsPerCluster int) ([][]string, []string, []string) {
	vocabA := []string{"anemia", "dialysis", "insulin", "kidney", "surgery", "therapy"}
	vocabB := []string{"goal", "league", "match", "playoff", "stadium", "trophy"}
	var docs [][]string
	for i := 0; i < docsPerCluster; i++ {
		var a, b []string
		for j := 0; j < 12; j++ {
			a = append(a, vocabA[rng.Intn(len(vocabA))])
			b = append(b, vocabB[rng.Intn(len(vocabB))])
		}
		docs = append(docs, a, b)
	}
	return docs, vocabA, vocabB
}

func TestTrainSeparatesClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	docs, vocabA, vocabB := twoClusterCorpus(rng, 50)
	m, err := Train(docs, Config{Topics: 2, Iterations: 80, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Each topic's top terms must come (almost) entirely from one cluster.
	inSet := func(term string, set []string) bool {
		for _, s := range set {
			if s == term {
				return true
			}
		}
		return false
	}
	for k := 0; k < 2; k++ {
		top := m.TopTerms(k, 6)
		if len(top) == 0 {
			t.Fatalf("topic %d has no terms", k)
		}
		fromA, fromB := 0, 0
		for _, term := range top {
			if inSet(term, vocabA) {
				fromA++
			}
			if inSet(term, vocabB) {
				fromB++
			}
		}
		if fromA > 0 && fromB > 0 && fromA != 6 && fromB != 6 {
			purity := float64(max(fromA, fromB)) / float64(len(top))
			if purity < 0.8 {
				t.Errorf("topic %d mixes clusters: A=%d B=%d", k, fromA, fromB)
			}
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	docs, _, _ := twoClusterCorpus(rng, 20)
	a, err := Train(docs, Config{Topics: 3, Iterations: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(docs, Config{Topics: 3, Iterations: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		ta := strings.Join(a.TopTerms(k, 5), ",")
		tb := strings.Join(b.TopTerms(k, 5), ",")
		if ta != tb {
			t.Fatalf("same seed produced different models: %q vs %q", ta, tb)
		}
	}
}

func TestTrainEmptyCorpus(t *testing.T) {
	_, err := Train(nil, Config{})
	if !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("err = %v, want ErrEmptyCorpus", err)
	}
	_, err = Train([][]string{{}, {}}, Config{})
	if !errors.Is(err, ErrEmptyCorpus) {
		t.Fatalf("err = %v, want ErrEmptyCorpus (all-empty docs)", err)
	}
}

func TestCountInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	docs, _, _ := twoClusterCorpus(rng, 15)
	m, err := Train(docs, Config{Topics: 4, Iterations: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantTokens := 0
	for _, d := range docs {
		wantTokens += len(d)
	}
	if m.numTokens != wantTokens {
		t.Errorf("numTokens = %d, want %d", m.numTokens, wantTokens)
	}
	total := 0
	for k := 0; k < m.K; k++ {
		rowSum := 0
		for _, term := range m.TopTerms(k, len(m.vocab)) {
			_ = term
			rowSum++ // presence only; counts checked via topicTotal below
		}
		_ = rowSum
		total += m.topicTotal[k]
		if m.topicTotal[k] < 0 {
			t.Fatalf("negative topic total for topic %d", k)
		}
	}
	if total != wantTokens {
		t.Errorf("sum(topicTotal) = %d, want %d", total, wantTokens)
	}
}

// termProb is the smoothed probability of term under topic k,
// phi_k(term) = (n_kw + beta) / (n_k + V*beta), the distribution TopTerms
// ranks by. Unknown terms get the smoothing floor.
func termProb(m *Model, k int, term string) float64 {
	if k < 0 || k >= m.K {
		return 0
	}
	vBeta := float64(len(m.vocab)) * m.Beta
	w, ok := m.vocabIndex[term]
	if !ok {
		return m.Beta / (float64(m.topicTotal[k]) + vBeta)
	}
	return (float64(m.topicTerm[k][w]) + m.Beta) / (float64(m.topicTotal[k]) + vBeta)
}

func TestTermProb(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	docs, _, _ := twoClusterCorpus(rng, 20)
	m, err := Train(docs, Config{Topics: 2, Iterations: 40, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Probabilities over the vocabulary sum to ~1 for each topic.
	for k := 0; k < m.K; k++ {
		sum := 0.0
		for _, term := range []string{"anemia", "dialysis", "insulin", "kidney", "surgery", "therapy", "goal", "league", "match", "playoff", "stadium", "trophy"} {
			sum += termProb(m, k, term)
		}
		if sum < 0.95 || sum > 1.05 {
			t.Errorf("topic %d term probs sum to %v", k, sum)
		}
	}
	if termProb(m, -1, "kidney") != 0 || termProb(m, 99, "kidney") != 0 {
		t.Error("out-of-range topic should yield 0")
	}
	if p := termProb(m, 0, "unseen-term"); p <= 0 {
		t.Error("unknown term should get smoothing floor > 0")
	}
}

func TestDictionary(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	docs, vocabA, vocabB := twoClusterCorpus(rng, 30)
	m, err := Train(docs, Config{Topics: 2, Iterations: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	dict := m.Dictionary(6)
	for _, term := range append(vocabA, vocabB...) {
		if _, ok := dict[term]; !ok {
			t.Errorf("dictionary missing frequent term %q", term)
		}
	}
	if len(dict) > 12 {
		t.Errorf("dictionary too large: %d", len(dict))
	}
}

func TestTopTermsEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	docs, _, _ := twoClusterCorpus(rng, 5)
	m, err := Train(docs, Config{Topics: 2, Iterations: 10, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if m.TopTerms(-1, 5) != nil || m.TopTerms(5, 5) != nil || m.TopTerms(0, 0) != nil {
		t.Error("invalid TopTerms args should return nil")
	}
	top := m.TopTerms(0, 1000)
	if len(top) > len(m.vocab) {
		t.Error("TopTerms returned more terms than vocabulary")
	}
}

func TestTrainOnGeneratedCorpus(t *testing.T) {
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 10})
	docs := queries.GenerateCorpus(uni, "sex", queries.CorpusConfig{Seed: 10, Documents: 300})
	m, err := Train(docs, Config{Topics: 8, Iterations: 40, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	dict := m.Dictionary(30)
	// The dictionary must capture a large share of the sensitive topic's
	// head vocabulary (recall-driving behaviour for Table II).
	hits := 0
	head := uni.Topic("sex").Terms[:40]
	for _, term := range head {
		if _, ok := dict[term]; ok {
			hits++
		}
	}
	if frac := float64(hits) / float64(len(head)); frac < 0.5 {
		t.Errorf("LDA dictionary captured only %.2f of head terms", frac)
	}
	if s := m.String(); !strings.Contains(s, "K=8") {
		t.Errorf("String() = %q", s)
	}
}

func TestGenerateCorpusUnknownTopic(t *testing.T) {
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 10})
	if docs := queries.GenerateCorpus(uni, "nope", queries.CorpusConfig{}); docs != nil {
		t.Error("unknown topic should yield nil corpus")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
