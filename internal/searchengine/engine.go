// Package searchengine simulates the web search engine CYCLOSA and its
// competitors query. The paper's evaluation needs three engine behaviours
// that a live engine cannot provide reproducibly:
//
//   - deterministic ranked results per query, so correctness/completeness of
//     a protection mechanism can be measured against ground truth (Fig 6);
//   - handling of OR-aggregated queries ("q1 OR q2 OR ... qk"), the
//     obfuscation format of GooPIR/PEAS/X-SEARCH, whose merged result lists
//     are what degrades their accuracy;
//   - per-source rate limiting with bot detection: the anti-bot behaviour
//     that blocks centralized proxies (Fig 8d) — "after a high flow of
//     queries, Google's bot protection triggers and asks to fill a captcha".
//
// The engine is honest but curious (§III): it answers faithfully while
// recording every observed (source, query) pair for the re-identification
// adversary.
package searchengine

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"cyclosa/internal/queries"
	"cyclosa/internal/textproc"
)

// ORSeparator is the literal separator of obfuscated disjunction queries.
const ORSeparator = " OR "

// Result is one ranked search result.
type Result struct {
	// DocID identifies the underlying document.
	DocID int
	// URL is the document locator.
	URL string
	// Title is a short human-readable heading.
	Title string
	// Terms are the document's terms; response filtering by the obfuscating
	// mechanisms inspects them.
	Terms []string
	// Score is the ranking score (descending).
	Score float64
}

// Errors returned by Search.
var (
	// ErrRateLimited signals the captcha challenge: the source exceeded the
	// per-source query rate and must back off.
	ErrRateLimited = errors.New("searchengine: rate limited (captcha)")
	// ErrBlocked signals the bot detector banned the source outright after
	// repeated violations.
	ErrBlocked = errors.New("searchengine: source blocked by bot detection")
	// ErrEmptyQuery rejects queries with no usable terms.
	ErrEmptyQuery = errors.New("searchengine: empty query")
)

// Config controls the simulated engine.
type Config struct {
	// Seed drives corpus generation.
	Seed int64
	// NumDocs is the synthetic web corpus size (default 6000).
	NumDocs int
	// ResultsPerQuery is the result-page size (default 10).
	ResultsPerQuery int
	// RateLimitPerHour is the per-source sustained query budget (default
	// 3000/h ≈ the order of magnitude at which public engines start
	// challenging automated traffic). Zero disables rate limiting.
	RateLimitPerHour float64
	// Burst is the token-bucket burst capacity (default RateLimitPerHour/10,
	// minimum 30).
	Burst float64
	// BlockAfterViolations is the number of rate violations after which the
	// source is banned (default 50). Zero means never ban.
	BlockAfterViolations int
}

func (c *Config) applyDefaults() {
	if c.NumDocs == 0 {
		c.NumDocs = 6000
	}
	if c.ResultsPerQuery == 0 {
		c.ResultsPerQuery = 10
	}
	if c.RateLimitPerHour == 0 {
		c.RateLimitPerHour = 3000
	}
	if c.Burst == 0 {
		c.Burst = c.RateLimitPerHour / 10
		if c.Burst < 30 {
			c.Burst = 30
		}
	}
	if c.BlockAfterViolations == 0 {
		c.BlockAfterViolations = 50
	}
}

// Observation is one query as seen by the engine-side adversary.
type Observation struct {
	// Source is the network identity the query arrived from (the relay for
	// protected traffic, the user for direct traffic).
	Source string
	// Query is the received query text.
	Query string
	// Time is the arrival time.
	Time time.Time
}

type document struct {
	id    int
	topic string
	url   string
	title string
	terms []string
	tf    map[string]int
}

// Engine is the simulated search engine.
type Engine struct {
	cfg  Config
	docs []document
	// index maps a term to the documents containing it.
	index map[string][]int
	// docFreq is the document frequency per term (for IDF).
	docFreq map[string]int

	mu           sync.Mutex
	buckets      map[string]*bucket
	blocked      map[string]struct{}
	violations   map[string]int
	observations []Observation
}

type bucket struct {
	tokens float64
	last   time.Time
}

// New builds an engine over a synthetic web corpus derived from the
// universe: each document belongs to a topic and carries a Zipf-biased
// sample of its vocabulary plus background terms, so topical queries have
// meaningful result sets.
func New(uni *queries.Universe, cfg Config) *Engine {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	e := &Engine{
		cfg:        cfg,
		index:      make(map[string][]int),
		docFreq:    make(map[string]int),
		buckets:    make(map[string]*bucket),
		blocked:    make(map[string]struct{}),
		violations: make(map[string]int),
	}

	for i := 0; i < cfg.NumDocs; i++ {
		topic := uni.Topics[rng.Intn(len(uni.Topics))]
		nTerms := 20 + rng.Intn(20)
		terms := make([]string, 0, nTerms)
		tf := make(map[string]int, nTerms)
		for len(terms) < nTerms {
			var term string
			if rng.Float64() < 0.2 && len(uni.Background) > 0 {
				term = uni.Background[rng.Intn(len(uni.Background))]
			} else {
				term = topic.Terms[zipfIdx(rng, len(topic.Terms))]
			}
			terms = append(terms, term)
			tf[term]++
		}
		title := strings.Join(terms[:minInt(4, len(terms))], " ")
		doc := document{
			id:    i,
			topic: topic.Name,
			url:   fmt.Sprintf("https://web.sim/%s/%d", topic.Name, i),
			title: title,
			terms: terms,
			tf:    tf,
		}
		e.docs = append(e.docs, doc)
		for term := range tf {
			e.index[term] = append(e.index[term], i)
			e.docFreq[term]++
		}
	}
	return e
}

// Search serves a query from source at the given time. It applies rate
// limiting and bot detection before answering, records the observation, and
// returns the ranked result page. OR-aggregated queries are answered with an
// interleaved merge of the disjuncts' result pages — the behaviour that
// makes OR-based obfuscation lossy (§II-A3).
func (e *Engine) Search(source, query string, now time.Time) ([]Result, error) {
	if err := e.admit(source, now); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.observations = append(e.observations, Observation{Source: source, Query: query, Time: now})
	e.mu.Unlock()

	subqueries := splitOR(query)
	if len(subqueries) == 1 {
		res := e.rank(subqueries[0], e.cfg.ResultsPerQuery)
		if res == nil {
			return nil, ErrEmptyQuery
		}
		return res, nil
	}

	// Disjunction: the engine treats the OR query as one bag of terms and
	// ranks the union by combined relevance — a single result page of the
	// usual size. Documents matching any disjunct compete for the same ten
	// slots, which is precisely why OR-based obfuscation dilutes the real
	// query's results (§II-A3).
	merged := e.rank(strings.Join(subqueries, " "), e.cfg.ResultsPerQuery)
	if merged == nil {
		return nil, ErrEmptyQuery
	}
	return merged, nil
}

// DirectResults returns the unthrottled, unobserved result page for a query
// — the ground truth the accuracy experiments compare against.
func (e *Engine) DirectResults(query string) []Result {
	return e.rank(query, e.cfg.ResultsPerQuery)
}

// rank scores documents against the query terms with TF-IDF and returns the
// top limit results. It returns nil when the query has no usable terms.
func (e *Engine) rank(query string, limit int) []Result {
	terms := textproc.Tokenize(query)
	if len(terms) == 0 {
		return nil
	}
	scores := make(map[int]float64)
	for _, term := range terms {
		docIDs := e.index[term]
		if len(docIDs) == 0 {
			continue
		}
		idf := math.Log(1 + float64(len(e.docs))/float64(e.docFreq[term]))
		for _, id := range docIDs {
			scores[id] += float64(e.docs[id].tf[term]) * idf
		}
	}
	if len(scores) == 0 {
		// No indexed term matched: empty but valid result page.
		return []Result{}
	}
	ids := make([]int, 0, len(scores))
	for id := range scores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if scores[ids[i]] != scores[ids[j]] {
			return scores[ids[i]] > scores[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if limit > len(ids) {
		limit = len(ids)
	}
	out := make([]Result, 0, limit)
	for _, id := range ids[:limit] {
		d := e.docs[id]
		out = append(out, Result{
			DocID: d.id,
			URL:   d.url,
			Title: d.title,
			Terms: d.terms,
			Score: scores[id],
		})
	}
	return out
}

// admit applies the token bucket and bot detection for source.
func (e *Engine) admit(source string, now time.Time) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, banned := e.blocked[source]; banned {
		return ErrBlocked
	}
	if e.cfg.RateLimitPerHour <= 0 {
		return nil
	}
	b, ok := e.buckets[source]
	if !ok {
		b = &bucket{tokens: e.cfg.Burst, last: now}
		e.buckets[source] = b
	}
	elapsed := now.Sub(b.last)
	if elapsed > 0 {
		b.tokens += elapsed.Hours() * e.cfg.RateLimitPerHour
		if b.tokens > e.cfg.Burst {
			b.tokens = e.cfg.Burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		e.violations[source]++
		if e.cfg.BlockAfterViolations > 0 && e.violations[source] >= e.cfg.BlockAfterViolations {
			e.blocked[source] = struct{}{}
			return ErrBlocked
		}
		return ErrRateLimited
	}
	b.tokens--
	return nil
}

// Observations returns a copy of the engine-side query log (the adversary's
// interception point, §VII-E).
func (e *Engine) Observations() []Observation {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Observation, len(e.observations))
	copy(out, e.observations)
	return out
}

// splitOR splits an OR-aggregated query into its disjuncts.
func splitOR(query string) []string {
	parts := strings.Split(query, ORSeparator)
	out := parts[:0]
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p != "" {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		return []string{""}
	}
	return out
}

func zipfIdx(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	idx := int(math.Pow(float64(n), rng.Float64())) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
