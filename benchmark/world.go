package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cyclosa/internal/lda"
	"cyclosa/internal/queries"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/wordnet"
)

// World sizing: the paper's cohort (198 users, ~730 queries each, 2/3 train
// and 1/3 test) rounded up. These are inputs of the benchmark, not options.
const (
	worldUsers          = 200
	worldMeanQueries    = 900
	worldTrainFrac      = 2.0 / 3.0
	worldLDADocs        = 1200
	worldLDATopics      = 12
	worldLDAIterations  = 60
	worldLDATermsPerTop = 40
	worldEngineDocs     = 4000
	worldKMax           = 7
	// bootstrapPerNode is the trending batch each node's fake-query table
	// starts with (§V-D).
	bootstrapPerNode = 64
	// warmupPerNode test queries per node run unmeasured before the clock
	// starts: sessions attested, connections dialled, pools filled.
	warmupPerNode = 5
)

var worldSensitiveTopics = []string{queries.TopicSex}

// world is everything a workload's inputs are made from, built from the seed
// alone. The system under test receives only the generated inputs.
type world struct {
	seed    int64
	uni     *queries.Universe
	wordnet *wordnet.Database
	lda     []*lda.Model
	// train and test are indexed by user (= node) index. test[i] is never
	// looped: a repeated query scores linkability 1 against its own first
	// occurrence and every search would degenerate to k = kmax.
	train [][]string
	test  [][]string
	// trending is the stream BootstrapFromTrending(uni, bootstrapPerNode,
	// seed) hands to the nodes, reproduced from a same-seeded source so its
	// result pages can be precomputed too.
	trending []string
	engine   *cannedEngine
}

// cannedEngine is the search engine the relays front. The engine is outside
// the system under test (in the paper it is Google): pages are precomputed
// with searchengine.Engine.DirectResults at set-up and served from a
// read-only map, so a relay still puts a real 10-result page on the wire
// (realistic seal, codec and frame sizes) and the exact-results check still
// has a ground truth, without the simulated TF-IDF ranker (≈70 µs a query,
// 6 queries a search) drowning every CYCLOSA layer.
type cannedEngine struct {
	truth *searchengine.Engine
	pages map[string][]searchengine.Result // read-only once newWorld returns

	served atomic.Uint64
	missMu sync.Mutex
	misses map[string][]searchengine.Result // pages computed on demand
}

// Search implements core.Backend and backend.Engine.
func (c *cannedEngine) Search(_ string, query string, _ time.Time) ([]searchengine.Result, error) {
	c.served.Add(1)
	if page, ok := c.pages[query]; ok {
		return page, nil
	}
	c.missMu.Lock()
	defer c.missMu.Unlock()
	page, ok := c.misses[query]
	if !ok {
		page = c.truth.DirectResults(query)
		c.misses[query] = page
	}
	return page, nil
}

// missCount is the number of distinct queries that were not precomputed.
func (c *cannedEngine) missCount() int {
	c.missMu.Lock()
	defer c.missMu.Unlock()
	return len(c.misses)
}

// truthFor returns the ground-truth page of a query the world generated.
func (c *cannedEngine) truthFor(query string) []searchengine.Result { return c.pages[query] }

// newWorld generates the inputs for nodes nodes. adaptive selects the full
// substrate (query log, lexical database, LDA model, result pages); without
// it only the universe and the trending stream exist, which is all the two
// NullBackend workloads read.
func newWorld(seed int64, nodes int, adaptive bool) (*world, error) {
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: seed})
	w := &world{
		seed:     seed,
		uni:      uni,
		trending: queries.NewTrendingSource(uni, seed).Batch(bootstrapPerNode * nodes),
	}
	if !adaptive {
		return w, nil
	}

	log := queries.Generate(queries.GeneratorConfig{
		Seed:                  seed,
		Universe:              uni,
		NumUsers:              nodes,
		MeanQueriesPerUser:    worldMeanQueries,
		SensitiveTopicChoices: worldSensitiveTopics,
	})
	train, test := log.Split(worldTrainFrac)
	users := log.Users()
	if len(users) != nodes {
		return nil, fmt.Errorf("world: generated %d users, want %d", len(users), nodes)
	}
	// queries.Log.UserQueries is a linear scan of the whole log; called per
	// op it was a quarter of the prototype's CPU. Slice once, here.
	index := make(map[string]int, nodes)
	for i, u := range users {
		index[u] = i
	}
	w.train = make([][]string, nodes)
	w.test = make([][]string, nodes)
	for _, q := range train.Queries {
		w.train[index[q.User]] = append(w.train[index[q.User]], q.Text)
	}
	for _, q := range test.Queries {
		w.test[index[q.User]] = append(w.test[index[q.User]], q.Text)
	}

	w.wordnet = wordnet.Build(uni, wordnet.BuildConfig{Seed: seed})
	for i, topic := range worldSensitiveTopics {
		docs := queries.GenerateCorpus(uni, topic, queries.CorpusConfig{Seed: seed + int64(i), Documents: worldLDADocs})
		m, err := lda.Train(docs, lda.Config{Topics: worldLDATopics, Iterations: worldLDAIterations, Seed: seed + int64(i)})
		if err != nil {
			return nil, fmt.Errorf("world: train lda for %s: %w", topic, err)
		}
		w.lda = append(w.lda, m)
	}

	// RateLimitPerHour -1, not 0: zero means the 3000/h default, and every
	// relay would be banned within a second of load.
	truth := searchengine.New(uni, searchengine.Config{Seed: seed, NumDocs: worldEngineDocs, RateLimitPerHour: -1})
	w.engine = &cannedEngine{truth: truth, misses: make(map[string][]searchengine.Result)}
	w.engine.pages = precomputePages(truth, w.test, w.trending)
	return w, nil
}

// precomputePages ranks every query a relay can receive: the test queries
// (real queries, and later fakes drawn from the tables they were recorded
// in) and the trending bootstrap. DirectResults only reads the engine, so
// the work is split over setupWorkers goroutines.
func precomputePages(truth *searchengine.Engine, test [][]string, trending []string) map[string][]searchengine.Result {
	seen := make(map[string]struct{})
	var distinct []string
	add := func(q string) {
		if _, dup := seen[q]; !dup {
			seen[q] = struct{}{}
			distinct = append(distinct, q)
		}
	}
	for _, qs := range test {
		for _, q := range qs {
			add(q)
		}
	}
	for _, q := range trending {
		add(q)
	}

	results := make([][]searchengine.Result, len(distinct))
	var wg sync.WaitGroup
	for g := 0; g < setupWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(distinct); i += setupWorkers {
				results[i] = truth.DirectResults(distinct[i])
			}
		}(g)
	}
	wg.Wait()

	pages := make(map[string][]searchengine.Result, len(distinct))
	for i, q := range distinct {
		pages[q] = results[i]
	}
	return pages
}
