package sensitivity

import (
	"sync"

	"cyclosa/internal/textproc"
)

// Linkability assesses the risk that a query can be linked back to its
// originating user by a re-identification attack (§V-A2): it measures the
// proximity of the query to the user's own past queries via cosine
// similarity and aggregates the ranked similarities with exponential
// smoothing. The score is in [0, 1]; higher means more linkable.
//
// The assessor maintains the user's local history. It is safe for concurrent
// use: the browser extension assesses queries while the history grows.
type Linkability struct {
	mu    sync.RWMutex
	index *textproc.SimilarityIndex
	alpha float64
}

// NewLinkability creates an assessor with the given smoothing factor
// (DefaultSmoothingAlpha if alpha <= 0) and unbounded history.
func NewLinkability(alpha float64) *Linkability {
	return NewBoundedLinkability(alpha, 0)
}

// NewBoundedLinkability creates an assessor that keeps only the most recent
// maxSize queries, for long-running clients.
func NewBoundedLinkability(alpha float64, maxSize int) *Linkability {
	if alpha <= 0 {
		alpha = textproc.DefaultSmoothingAlpha
	}
	return &Linkability{index: textproc.NewSimilarityIndex(maxSize), alpha: alpha}
}

// Add records a past query of the local user.
func (l *Linkability) Add(query string) {
	l.addTerms(textproc.Tokenize(query))
}

func (l *Linkability) addTerms(terms []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.index.Add(terms)
}

// AddAll records a batch of past queries.
func (l *Linkability) AddAll(queries []string) {
	for _, q := range queries {
		l.Add(q)
	}
}

// HistorySize returns the number of recorded past queries.
func (l *Linkability) HistorySize() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.index.Len()
}

// Score returns the linkability of query against the recorded history:
// the exponential smoothing of the ranked cosine similarities. An empty
// history or empty query yields 0.
func (l *Linkability) Score(query string) float64 {
	return l.scoreTerms(textproc.Tokenize(query))
}

func (l *Linkability) scoreTerms(terms []string) float64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.index.Score(terms, l.alpha)
}
