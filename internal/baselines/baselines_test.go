// Package baselines_test exercises the TMN, GooPIR, PEAS and X-SEARCH
// baselines together against the shared substrate, verifying the behaviours
// the evaluation harness relies on: who the engine sees, how obfuscation
// shapes traffic, and how filtering degrades accuracy.
package baselines_test

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"cyclosa/internal/baselines/goopir"
	"cyclosa/internal/baselines/peas"
	"cyclosa/internal/baselines/tmn"
	"cyclosa/internal/baselines/xsearch"
	"cyclosa/internal/enclave"
	"cyclosa/internal/queries"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/textproc"
	"cyclosa/internal/transport"
)

var t0 = time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)

func setup(t *testing.T, seed int64) (*queries.Universe, *searchengine.Engine, *transport.Model) {
	t.Helper()
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: seed})
	engine := searchengine.New(uni, searchengine.Config{Seed: seed, NumDocs: 800})
	return uni, engine, transport.DefaultModel(seed)
}

func TestTMNSendsFakesUnderUserIdentity(t *testing.T) {
	uni, engine, model := setup(t, 70)
	feed := tmn.NewRSSFeed(uni, 70)
	client := tmn.NewClient("alice", engine, feed, model, 3, 70)

	q := uni.Topic("travel").Terms[0]
	results, latency, err := client.Search(q, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if latency <= 0 || latency > 10*time.Second {
		t.Errorf("latency = %v", latency)
	}
	obs := engine.Observations()
	if len(obs) != 4 { // 3 fakes + 1 real
		t.Fatalf("observations = %d, want 4", len(obs))
	}
	realSeen := false
	for _, o := range obs {
		if o.Source != "alice" {
			t.Errorf("TMN query from %q, identity must be exposed", o.Source)
		}
		if o.Query == q {
			realSeen = true
		}
	}
	if !realSeen {
		t.Error("real query never reached the engine")
	}
	// Accuracy is perfect: real results match the direct page.
	direct := engine.DirectResults(q)
	for i := range direct {
		if results[i].DocID != direct[i].DocID {
			t.Fatal("TMN results differ from direct")
		}
	}
}

func TestRSSFeedAvoidsSensitiveTopics(t *testing.T) {
	uni, _, _ := setup(t, 71)
	feed := tmn.NewRSSFeed(uni, 71)
	sens := make(map[string]struct{})
	for _, name := range uni.SensitiveTopicNames() {
		for _, term := range uni.Topic(name).Terms {
			sens[term] = struct{}{}
		}
	}
	poly := make(map[string]struct{})
	for _, p := range uni.PolysemousTerms() {
		poly[p] = struct{}{}
	}
	for i := 0; i < 100; i++ {
		for _, term := range strings.Fields(feed.Headline()) {
			_, isSens := sens[term]
			_, isPoly := poly[term]
			if isSens && !isPoly {
				t.Fatalf("headline used unambiguous sensitive term %q", term)
			}
		}
	}
}

func TestGooPIRObfuscation(t *testing.T) {
	uni, engine, model := setup(t, 72)
	dict := goopir.NewDictionary(uni)
	if dict.Size() == 0 {
		t.Fatal("empty dictionary")
	}
	client := goopir.NewClient("bob", engine, dict, model, 4, 72)

	q := uni.Topic("cars").Terms[0] + " " + uni.Topic("cars").Terms[1]
	obfuscated, disjuncts, realIdx := client.Obfuscate(q)
	if len(disjuncts) != 4 {
		t.Fatalf("disjuncts = %d", len(disjuncts))
	}
	if disjuncts[realIdx] != q {
		t.Error("real query not at real index")
	}
	if !strings.Contains(obfuscated, searchengine.ORSeparator) {
		t.Error("obfuscated query not OR-joined")
	}
	// Fakes match the real query's term count.
	for i, d := range disjuncts {
		if i == realIdx {
			continue
		}
		if got := len(textproc.Tokenize(d)); got != 2 {
			t.Errorf("fake %d has %d terms, want 2", i, got)
		}
	}
}

func TestGooPIRAccuracyImperfect(t *testing.T) {
	uni, engine, model := setup(t, 73)
	client := goopir.NewClient("bob", engine, goopir.NewDictionary(uni), model, 4, 73)

	// Average over queries: GooPIR must lose accuracy versus direct pages.
	losses := 0
	for i := 0; i < 15; i++ {
		q := uni.Topic("cooking").Terms[i] + " " + uni.Topic("cooking").Terms[i+1]
		direct := engine.DirectResults(q)
		got, _, err := client.Search(q, t0)
		if err != nil {
			t.Fatal(err)
		}
		if searchengine.Overlap(direct, got) < len(direct) {
			losses++
		}
	}
	if losses == 0 {
		t.Error("GooPIR never lost a result; OR dilution not effective")
	}
	// Identity exposed: engine sees "bob".
	obs := engine.Observations()
	if obs[len(obs)-1].Source != "bob" {
		t.Errorf("source = %q", obs[len(obs)-1].Source)
	}
}

func TestPEASCooccurrenceGeneration(t *testing.T) {
	c := peas.NewCooccurrence()
	rngQueries := [][]string{
		{"kidney", "dialysis"},
		{"kidney", "transplant"},
		{"dialysis", "clinic"},
	}
	for _, q := range rngQueries {
		c.Add(q)
	}
	if c.Terms() != 4 {
		t.Errorf("terms = %d, want 4", c.Terms())
	}
	rng := newRand(73)
	fake := c.Generate(rng, 2)
	if fake == "" {
		t.Fatal("no fake generated")
	}
	terms := strings.Fields(fake)
	if len(terms) != 2 {
		t.Fatalf("fake length = %d", len(terms))
	}
	known := map[string]struct{}{"kidney": {}, "dialysis": {}, "transplant": {}, "clinic": {}}
	for _, term := range terms {
		if _, ok := known[term]; !ok {
			t.Errorf("fake term %q not from the matrix", term)
		}
	}
	// Empty matrix yields "".
	if got := peas.NewCooccurrence().Generate(rng, 2); got != "" {
		t.Errorf("empty matrix generated %q", got)
	}
}

func TestPEASEndToEnd(t *testing.T) {
	uni, engine, model := setup(t, 74)
	issuer := peas.NewIssuer(engine, 3, 74)
	// Seed the matrix with historical queries (the issuer has served
	// others before).
	hist := queries.Generate(queries.GeneratorConfig{Seed: 74, Universe: uni, NumUsers: 10, MeanQueriesPerUser: 30})
	for _, q := range hist.Queries {
		issuer.Cooccurrence().Add(textproc.Tokenize(q.Text))
	}
	proxy := peas.NewProxy(issuer, model)

	q := uni.Topic("music").Terms[0] + " " + uni.Topic("music").Terms[1]
	results, latency, err := proxy.Search("carol", q, t0)
	if err != nil {
		t.Fatal(err)
	}
	if latency <= 0 {
		t.Error("no latency accounted")
	}
	// Identity never reaches the engine: source is the issuer.
	obs := engine.Observations()
	last := obs[len(obs)-1]
	if last.Source != peas.IssuerSource {
		t.Errorf("source = %q, want issuer", last.Source)
	}
	// The engine received an OR group containing the real query.
	if !strings.Contains(last.Query, searchengine.ORSeparator) || !strings.Contains(last.Query, q) {
		t.Errorf("engine query = %q", last.Query)
	}
	// Filtered results all share a term with the real query.
	qTerms := textproc.Tokenize(q)
	for _, r := range results {
		found := false
		for _, rt := range r.Terms {
			for _, qt := range qTerms {
				if rt == qt {
					found = true
				}
			}
		}
		if !found {
			t.Error("filtered result shares no term with the query")
		}
	}
}

func TestXSearchProxy(t *testing.T) {
	uni, engine, model := setup(t, 75)
	platform, err := enclave.NewPlatform("xsearch-host", enclave.NewIAS())
	if err != nil {
		t.Fatal(err)
	}
	proxy := xsearch.NewProxy(platform, engine, model, 3, 75)
	proxy.Bootstrap(queries.NewTrendingSource(uni, 75).Batch(32))
	if proxy.TableLen() != 32 {
		t.Fatalf("table = %d", proxy.TableLen())
	}

	q := uni.Topic("games").Terms[0] + " " + uni.Topic("games").Terms[1]
	results, latency, err := proxy.Search("dave", q, t0)
	if err != nil {
		t.Fatal(err)
	}
	if latency <= 0 {
		t.Error("no latency accounted")
	}
	_ = results
	obs := engine.Observations()
	last := obs[len(obs)-1]
	if last.Source != xsearch.ProxySource {
		t.Errorf("source = %q", last.Source)
	}
	parts := strings.Split(last.Query, searchengine.ORSeparator)
	if len(parts) != 4 {
		t.Fatalf("OR group size = %d, want 4", len(parts))
	}
	// The query was recorded for future obfuscation.
	if proxy.TableLen() != 33 {
		t.Errorf("table after search = %d, want 33", proxy.TableLen())
	}
	// Obfuscate ground truth API.
	obfuscated, disjuncts, realIdx := proxy.Obfuscate(q)
	if disjuncts[realIdx] != q {
		t.Error("real index wrong")
	}
	if !strings.Contains(obfuscated, searchengine.ORSeparator) {
		t.Error("not OR-joined")
	}
	// Enclave gate: the proxy enclave exists and tracks EPC usage.
	if proxy.Enclave().Stats().EPCUsed == 0 {
		t.Error("proxy table not charged to EPC")
	}
}

func TestFilterByTerms(t *testing.T) {
	results := []searchengine.Result{
		{DocID: 1, Terms: []string{"kidney", "clinic"}},
		{DocID: 2, Terms: []string{"football", "score"}},
		{DocID: 3, Terms: []string{"dialysis"}},
	}
	got := searchengine.FilterByTerms(results, []string{"kidney", "dialysis"})
	if len(got) != 2 || got[0].DocID != 1 || got[1].DocID != 3 {
		t.Errorf("filtered = %+v", got)
	}
	if searchengine.FilterByTerms(results, nil) != nil {
		t.Error("empty terms should filter everything")
	}
	if got := searchengine.FilterByQuery(results, "the kidney"); len(got) != 1 {
		t.Errorf("FilterByQuery = %+v", got)
	}
}

func TestOverlap(t *testing.T) {
	a := []searchengine.Result{{DocID: 1}, {DocID: 2}, {DocID: 3}}
	b := []searchengine.Result{{DocID: 2}, {DocID: 3}, {DocID: 4}}
	if got := searchengine.Overlap(a, b); got != 2 {
		t.Errorf("Overlap = %d", got)
	}
	if got := searchengine.Overlap(nil, b); got != 0 {
		t.Errorf("Overlap(nil) = %d", got)
	}
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
