package sensitivity

import (
	"sync"
	"testing"

	"cyclosa/internal/lda"
	"cyclosa/internal/queries"
	"cyclosa/internal/testutil"
	"cyclosa/internal/wordnet"
)

// fixture builds a universe, lexical database and trained LDA models for the
// "sex" topic (the paper's example sensitive subject, §V-F).
type fixture struct {
	uni    *queries.Universe
	db     *wordnet.Database
	models []*lda.Model
}

var (
	fixtureOnce sync.Once
	shared      fixture
)

func getFixture(t *testing.T) fixture {
	t.Helper()
	fixtureOnce.Do(func() {
		uni := queries.NewUniverse(queries.UniverseConfig{Seed: 21})
		db := wordnet.Build(uni, wordnet.BuildConfig{Seed: 21})
		docs := queries.GenerateCorpus(uni, "sex", queries.CorpusConfig{Seed: 21, Documents: 400})
		m, err := lda.Train(docs, lda.Config{Topics: 8, Iterations: 40, Seed: 21})
		if err != nil {
			panic(err)
		}
		shared = fixture{uni: uni, db: db, models: []*lda.Model{m}}
	})
	return shared
}

func TestWordNetDetector(t *testing.T) {
	fx := getFixture(t)
	d := NewWordNetDetector(fx.db, []string{"sex"})
	if d.dict.Len() == 0 {
		t.Fatal("empty WordNet dictionary")
	}
	// A query made of covered sensitive terms must be flagged.
	hits := 0
	for _, term := range fx.uni.Topic("sex").Terms[:50] {
		if d.IsSensitive([]string{term}) {
			hits++
		}
	}
	if hits < 25 {
		t.Errorf("WordNet detector flagged only %d/50 sensitive head terms", hits)
	}
	// Loose synonymy sweeps some everyday words into the sensitive
	// dictionary (WordNet's precision weakness, Table II), but they must
	// remain a minority of the background vocabulary.
	flagged := 0
	for _, term := range fx.uni.Background {
		if d.IsSensitive([]string{term}) {
			flagged++
		}
	}
	if frac := float64(flagged) / float64(len(fx.uni.Background)); frac > 0.8 {
		t.Errorf("WordNet detector flags %.2f of background terms; dictionary too polluted", frac)
	}
}

func TestLDADetector(t *testing.T) {
	fx := getFixture(t)
	d := NewLDADetector(fx.models, 30)
	if len(d.dict) == 0 {
		t.Fatal("empty LDA dictionary")
	}
	hits := 0
	for _, term := range fx.uni.Topic("sex").Terms[:40] {
		if d.IsSensitive([]string{term}) {
			hits++
		}
	}
	if hits < 20 {
		t.Errorf("LDA detector flagged only %d/40 sensitive head terms", hits)
	}
	if d.IsSensitive(nil) {
		t.Error("nil terms should not be sensitive")
	}
}

func TestCombinedDetectorVetoesBackgroundNoise(t *testing.T) {
	fx := getFixture(t)
	ldaDet := NewLDADetector(fx.models, 60)
	comb := NewCombinedDetector(fx.db, fx.models, 60, []string{"sex"})

	// Find a background term that leaked into the LDA dictionary; the
	// combined detector must veto it if WordNet knows it as factotum-only.
	vetoed := 0
	leaked := 0
	for _, term := range fx.uni.Background {
		if !ldaDet.IsSensitive([]string{term}) {
			continue
		}
		leaked++
		if !comb.IsSensitive([]string{term}) {
			vetoed++
		}
	}
	if leaked == 0 {
		t.Skip("no background leakage at this seed; veto untestable")
	}
	if vetoed == 0 {
		t.Errorf("combined detector vetoed 0 of %d leaked background terms", leaked)
	}
}

func TestCombinedDetectorKeepsSensitiveTerms(t *testing.T) {
	fx := getFixture(t)
	comb := NewCombinedDetector(fx.db, fx.models, 40, []string{"sex"})
	hits := 0
	for _, term := range fx.uni.Topic("sex").Terms[:40] {
		if comb.IsSensitive([]string{term}) {
			hits++
		}
	}
	if hits < 20 {
		t.Errorf("combined detector flagged only %d/40 sensitive head terms", hits)
	}
}

func TestLinkabilityScore(t *testing.T) {
	l := NewLinkability(0.5)
	if l.Score("anything") != 0 {
		t.Error("empty history should score 0")
	}
	l.Add("kidney dialysis treatment")
	l.Add("cheap flights boston")

	same := l.Score("kidney dialysis treatment")
	related := l.Score("kidney transplant")
	unrelated := l.Score("pizza recipe dough")

	if same <= related {
		t.Errorf("identical query (%.3f) should outscore related (%.3f)", same, related)
	}
	if related <= unrelated {
		t.Errorf("related query (%.3f) should outscore unrelated (%.3f)", related, unrelated)
	}
	if unrelated != 0 {
		t.Errorf("fully unrelated query scored %.3f, want 0", unrelated)
	}
	if same <= 0 || same > 1 {
		t.Errorf("score out of range: %v", same)
	}
}

func TestLinkabilityEmptyQuery(t *testing.T) {
	l := NewLinkability(0.5)
	l.Add("kidney dialysis")
	if l.Score("") != 0 {
		t.Error("empty query should score 0")
	}
	if l.Score("the of and") != 0 {
		t.Error("stop-word-only query should score 0")
	}
}

func TestLinkabilityIgnoresEmptyAdds(t *testing.T) {
	l := NewLinkability(0.5)
	l.Add("")
	l.Add("the of")
	if l.HistorySize() != 0 {
		t.Errorf("history size = %d, want 0", l.HistorySize())
	}
}

func TestBoundedLinkability(t *testing.T) {
	l := NewBoundedLinkability(0.5, 3)
	for _, q := range []string{"q1 a", "q2 b", "q3 c", "q4 d", "q5 e"} {
		l.Add(q)
	}
	if l.HistorySize() != 3 {
		t.Errorf("bounded history size = %d, want 3", l.HistorySize())
	}
	// The oldest queries were evicted: q1 no longer contributes.
	if got := l.Score("q1"); got != 0 {
		t.Errorf("evicted query still scores %v", got)
	}
	if got := l.Score("q5"); got == 0 {
		t.Error("recent query should score > 0")
	}
}

func TestLinkabilityConcurrentUse(t *testing.T) {
	l := NewLinkability(0.5)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Add("kidney dialysis treatment")
				_ = l.Score("kidney transplant")
			}
		}()
	}
	wg.Wait()
	if l.HistorySize() != 800 {
		t.Errorf("history size = %d, want 800", l.HistorySize())
	}
}

func TestAnalyzerAdaptiveK(t *testing.T) {
	fx := getFixture(t)
	det := NewWordNetDetector(fx.db, []string{"sex"})
	link := NewLinkability(0.5)
	a := NewAnalyzer(det, link, 7)

	// Semantically sensitive -> kmax regardless of history.
	var sensTerm string
	for _, candidate := range fx.uni.Topic("sex").Terms {
		if fx.db.DomainsOf(candidate) != nil && len(fx.uni.TopicsOf(candidate)) == 1 {
			sensTerm = candidate
			break
		}
	}
	if sensTerm == "" {
		t.Fatal("no unambiguous covered sensitive term")
	}
	got := a.Assess(sensTerm)
	if !got.SemanticSensitive || got.K != 7 {
		t.Errorf("sensitive query assessment = %+v, want K=7", got)
	}

	// Non-sensitive with empty history -> k = 0.
	got = a.Assess("fepu lona") // unknown words, no history
	if got.SemanticSensitive || got.K != 0 {
		t.Errorf("fresh non-sensitive assessment = %+v, want K=0", got)
	}

	// Build linkable history: repeated identical query drives score to ~1.
	for i := 0; i < 10; i++ {
		a.RecordQuery(a.Assess("bodu keta ruda"))
	}
	got = a.Assess("bodu keta ruda")
	if got.K < 5 {
		t.Errorf("highly linkable query got K=%d, want near kmax", got.K)
	}
	if got.Linkability <= 0.5 {
		t.Errorf("linkability = %v, want > 0.5", got.Linkability)
	}
}

// Assessing a query against a long history allocates nothing: the query is
// tokenized into pooled scratch, the linkability score works out of pooled
// scratch, and the semantic check's WordNet lookups return precomputed
// domain lists.
func TestAnalyzerAssessAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	fx := getFixture(t)
	log := queries.Generate(queries.GeneratorConfig{Seed: 33, Universe: fx.uni, NumUsers: 4, MeanQueriesPerUser: 400})
	if len(log.Queries) < 601 {
		t.Fatalf("generated %d queries, need 601", len(log.Queries))
	}
	link := NewLinkability(0)
	for _, q := range log.Queries[:600] {
		link.Add(q.Text)
	}
	if link.HistorySize() < 590 {
		t.Fatalf("history holds %d entries, want about 600", link.HistorySize())
	}
	a := NewAnalyzer(NewCombinedDetector(fx.db, fx.models, 40, []string{"sex"}), link, 7)
	query := log.Queries[600].Text
	a.Assess(query) // sizes the scratch
	n := testing.AllocsPerRun(200, func() { a.Assess(query) })
	t.Logf("Assess over a %d-entry history: %.1f allocs", link.HistorySize(), n)
	if n != 0 {
		t.Errorf("Assess over a %d-entry history allocates %.1f times, want 0", link.HistorySize(), n)
	}
}

func TestAnalyzerNilComponents(t *testing.T) {
	a := NewAnalyzer(nil, nil, 0)
	if a.KMax() != DefaultKMax {
		t.Errorf("KMax = %d, want %d", a.KMax(), DefaultKMax)
	}
	got := a.Assess("whatever query")
	if got.SemanticSensitive || got.Linkability != 0 || got.K != 0 {
		t.Errorf("nil-component assessment = %+v", got)
	}
	a.RecordQuery(a.Assess("whatever")) // must not panic
}

func TestProjectKBounds(t *testing.T) {
	a := NewAnalyzer(nil, nil, 7)
	tests := []struct {
		semantic bool
		link     float64
		want     int
	}{
		{true, 0, 7},
		{false, 0, 0},
		{false, 1, 7},
		{false, 0.5, 4}, // round(3.5) = 4
		{false, 0.49, 3},
		{false, -1, 0},
		{false, 2, 7},
	}
	for _, tt := range tests {
		if got := a.projectK(tt.semantic, tt.link); got != tt.want {
			t.Errorf("projectK(%v, %v) = %d, want %d", tt.semantic, tt.link, got, tt.want)
		}
	}
}
