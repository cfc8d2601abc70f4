// Package lda implements Latent Dirichlet Allocation with collapsed Gibbs
// sampling. CYCLOSA trains an LDA model on a corpus associated with each
// sensitive topic (the paper uses Mallet with 200 topics over 2M adult-video
// titles and descriptions, §V-F) and compiles a keyword dictionary by
// gathering the terms of all thematic vectors. This package provides the
// trainer and the dictionary extraction.
package lda

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Config controls LDA training.
type Config struct {
	// Topics is the number of latent topics K (default 20).
	Topics int
	// Alpha is the document-topic Dirichlet prior (default 50/K).
	Alpha float64
	// Beta is the topic-term Dirichlet prior (default 0.01).
	Beta float64
	// Iterations is the number of Gibbs sweeps (default 100).
	Iterations int
	// Seed drives the sampler.
	Seed int64
}

func (c *Config) applyDefaults() {
	if c.Topics == 0 {
		c.Topics = 20
	}
	if c.Alpha == 0 {
		c.Alpha = 50.0 / float64(c.Topics)
	}
	if c.Beta == 0 {
		c.Beta = 0.01
	}
	if c.Iterations == 0 {
		c.Iterations = 100
	}
}

// Model is a trained LDA model.
type Model struct {
	// K is the number of topics.
	K int
	// Alpha and Beta are the Dirichlet priors used in training.
	Alpha, Beta float64

	vocab      []string
	vocabIndex map[string]int
	// topicTerm[k][v] counts assignments of vocab term v to topic k.
	topicTerm [][]int
	// topicTotal[k] is the total number of tokens assigned to topic k.
	topicTotal []int
	numTokens  int
}

// ErrEmptyCorpus is returned when Train receives no usable documents.
var ErrEmptyCorpus = errors.New("lda: empty corpus")

// Train fits an LDA model to the tokenized corpus with collapsed Gibbs
// sampling. Documents that are empty after tokenization are skipped.
func Train(docs [][]string, cfg Config) (*Model, error) {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	m := &Model{
		K:          cfg.Topics,
		Alpha:      cfg.Alpha,
		Beta:       cfg.Beta,
		vocabIndex: make(map[string]int),
	}

	// Index the corpus.
	var corpus [][]int
	for _, doc := range docs {
		if len(doc) == 0 {
			continue
		}
		ids := make([]int, len(doc))
		for i, term := range doc {
			id, ok := m.vocabIndex[term]
			if !ok {
				id = len(m.vocab)
				m.vocabIndex[term] = id
				m.vocab = append(m.vocab, term)
			}
			ids[i] = id
		}
		corpus = append(corpus, ids)
	}
	if len(corpus) == 0 {
		return nil, ErrEmptyCorpus
	}

	V := len(m.vocab)
	K := cfg.Topics
	m.topicTerm = make([][]int, K)
	for k := range m.topicTerm {
		m.topicTerm[k] = make([]int, V)
	}
	m.topicTotal = make([]int, K)

	// docTopic[d][k] counts tokens of doc d assigned to topic k.
	docTopic := make([][]int, len(corpus))
	assignments := make([][]int, len(corpus))
	for d, doc := range corpus {
		docTopic[d] = make([]int, K)
		assignments[d] = make([]int, len(doc))
		for i, w := range doc {
			z := rng.Intn(K)
			assignments[d][i] = z
			docTopic[d][z]++
			m.topicTerm[z][w]++
			m.topicTotal[z]++
			m.numTokens++
		}
	}

	// Collapsed Gibbs sweeps.
	probs := make([]float64, K)
	vBeta := float64(V) * cfg.Beta
	for iter := 0; iter < cfg.Iterations; iter++ {
		for d, doc := range corpus {
			for i, w := range doc {
				z := assignments[d][i]
				// Remove the token from the counts.
				docTopic[d][z]--
				m.topicTerm[z][w]--
				m.topicTotal[z]--

				// Sample a new topic from the full conditional.
				total := 0.0
				for k := 0; k < K; k++ {
					p := (float64(docTopic[d][k]) + cfg.Alpha) *
						(float64(m.topicTerm[k][w]) + cfg.Beta) /
						(float64(m.topicTotal[k]) + vBeta)
					probs[k] = p
					total += p
				}
				u := rng.Float64() * total
				newZ := K - 1
				acc := 0.0
				for k := 0; k < K; k++ {
					acc += probs[k]
					if u <= acc {
						newZ = k
						break
					}
				}

				assignments[d][i] = newZ
				docTopic[d][newZ]++
				m.topicTerm[newZ][w]++
				m.topicTotal[newZ]++
			}
		}
	}
	return m, nil
}

// TopTerms returns the n most probable terms of topic k (the topic's
// "thematic vector" in the paper's wording), most probable first.
func (m *Model) TopTerms(k, n int) []string {
	if k < 0 || k >= m.K || n <= 0 {
		return nil
	}
	type tc struct {
		term  string
		count int
	}
	all := make([]tc, 0, len(m.vocab))
	for w, term := range m.vocab {
		if m.topicTerm[k][w] > 0 {
			all = append(all, tc{term, m.topicTerm[k][w]})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].term < all[j].term
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].term
	}
	return out
}

// Dictionary gathers the terms of all thematic vectors: the union of the top
// termsPerTopic terms of every topic. This is how CYCLOSA compiles the LDA
// part of its sensitive-topic dictionary (§V-A1).
//
// Terms below a significance floor are pruned: a term enters a thematic
// vector only if its assignment count in the topic reaches the uniform
// expectation (topic tokens / vocabulary size, at least 2). At the paper's
// corpus scale (2M documents) the floor is irrelevant — every top term
// clears it by orders of magnitude — but at small training scales it keeps
// one-off sampling noise out of the dictionary.
func (m *Model) Dictionary(termsPerTopic int) map[string]struct{} {
	dict := make(map[string]struct{})
	v := len(m.vocab)
	for k := 0; k < m.K; k++ {
		floor := 2
		if v > 0 {
			if u := m.topicTotal[k] / v; u > floor {
				floor = u
			}
		}
		for _, term := range m.TopTerms(k, termsPerTopic) {
			if m.topicTerm[k][m.vocabIndex[term]] < floor {
				break // TopTerms is count-sorted: everything after is below
			}
			dict[term] = struct{}{}
		}
	}
	return dict
}

// String summarizes the model.
func (m *Model) String() string {
	return fmt.Sprintf("lda{K=%d V=%d tokens=%d}", m.K, len(m.vocab), m.numTokens)
}
