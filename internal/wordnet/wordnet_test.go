package wordnet

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"cyclosa/internal/queries"
	"cyclosa/internal/testutil"
)

func testDB(t *testing.T) (*queries.Universe, *Database) {
	t.Helper()
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 1})
	return uni, Build(uni, BuildConfig{Seed: 1})
}

func TestBuildDomains(t *testing.T) {
	uni, db := testDB(t)
	for _, want := range append(uni.SensitiveTopicNames(), "factotum") {
		if len(db.byDomain[want]) == 0 {
			t.Errorf("domain %q missing from database", want)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 2})
	a := Build(uni, BuildConfig{Seed: 9})
	b := Build(uni, BuildConfig{Seed: 9})
	if len(a.synsets) != len(b.synsets) {
		t.Fatal("same seed produced different databases")
	}
	da := a.DomainDictionary("health").Terms()
	db2 := b.DomainDictionary("health").Terms()
	if len(da) != len(db2) {
		t.Fatal("same seed produced different dictionaries")
	}
	for i := range da {
		if da[i] != db2[i] {
			t.Fatal("dictionary terms differ")
		}
	}
}

func TestCoverageCreatesGaps(t *testing.T) {
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 3})
	db := Build(uni, BuildConfig{Seed: 3, Coverage: 0.8})
	missing := 0
	total := 0
	for _, term := range uni.Topic("health").Terms {
		total++
		if len(db.byWord[term]) == 0 {
			missing++
		}
	}
	frac := float64(missing) / float64(total)
	if frac < 0.05 || frac > 0.45 {
		t.Errorf("coverage gap fraction = %.2f, want around 0.2", frac)
	}

	full := Build(uni, BuildConfig{Seed: 3, Coverage: 1.0})
	for _, term := range uni.Topic("health").Terms {
		if len(full.byWord[term]) == 0 {
			t.Fatalf("full-coverage database missing term %q", term)
		}
	}
}

func TestDomainDictionaryContainsTopicTerms(t *testing.T) {
	uni, db := testDB(t)
	dict := db.DomainDictionary("sex")
	hits := 0
	for _, term := range uni.Topic("sex").Terms {
		if dict.Contains(term) {
			hits++
		}
	}
	frac := float64(hits) / float64(len(uni.Topic("sex").Terms))
	if frac < 0.6 {
		t.Errorf("dictionary covers only %.2f of topic terms", frac)
	}
}

func TestPolysemyCausesFalsePositives(t *testing.T) {
	uni, db := testDB(t)
	// Find a polysemous term shared between a sensitive and a general topic;
	// the sensitive dictionary must contain it (the false-positive source).
	found := false
	var poly []string
	for _, topic := range uni.Topics {
		for _, term := range topic.Terms {
			if len(uni.TopicsOf(term)) > 1 {
				poly = append(poly, term)
			}
		}
	}
	sort.Strings(poly)
	for _, term := range slices.Compact(poly) {
		topics := uni.TopicsOf(term)
		var sensTopic string
		hasGeneral := false
		for _, tn := range topics {
			if uni.Topic(tn).Sensitive {
				sensTopic = tn
			} else {
				hasGeneral = true
			}
		}
		if sensTopic == "" || !hasGeneral {
			continue
		}
		if len(db.byWord[term]) == 0 {
			continue // dropped by coverage
		}
		if !db.DomainDictionary(sensTopic).Contains(term) {
			t.Errorf("sensitive dictionary for %s missing polysemous term %q", sensTopic, term)
		}
		found = true
		break
	}
	if !found {
		t.Skip("no covered cross-domain polysemous term in this universe seed")
	}
}

func TestDomainsOf(t *testing.T) {
	uni, db := testDB(t)
	// Any covered background term maps to factotum.
	for _, term := range uni.Background {
		if len(db.byWord[term]) == 0 {
			continue
		}
		doms := db.DomainsOf(term)
		if len(doms) == 0 || !contains(doms, "factotum") {
			t.Errorf("background term %q domains = %v", term, doms)
		}
		return
	}
	t.Fatal("no covered background terms")
}

func TestDictionaryMatchesAny(t *testing.T) {
	dict := NewDictionary("health")
	dict.Add("kidney")
	dict.Add("dialysis")
	if !dict.MatchesAny([]string{"cheap", "dialysis", "machine"}) {
		t.Error("MatchesAny missed a present term")
	}
	if dict.MatchesAny([]string{"cheap", "flights"}) {
		t.Error("MatchesAny matched an absent term")
	}
	if dict.MatchesAny(nil) {
		t.Error("MatchesAny(nil) should be false")
	}
}

func TestDictionaryMerge(t *testing.T) {
	a := NewDictionary("health")
	a.Add("kidney")
	b := NewDictionary("sex")
	b.Add("adult")
	m := a.Merge(b)
	if m.Len() != 2 || !m.Contains("kidney") || !m.Contains("adult") {
		t.Errorf("merge wrong: %v", m.Terms())
	}
	doms := slices.Clone(m.domains)
	sort.Strings(doms)
	if strings.Join(doms, ",") != "health,sex" {
		t.Errorf("merged domains = %v", doms)
	}
	// Originals unchanged.
	if a.Len() != 1 || b.Len() != 1 {
		t.Error("merge mutated inputs")
	}
}

func TestDictionaryString(t *testing.T) {
	d := NewDictionary("health")
	d.Add("x")
	if s := d.String(); !strings.Contains(s, "health") || !strings.Contains(s, "terms=1") {
		t.Errorf("String() = %q", s)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// domainsOfByScan is DomainsOf as a per-call map and sort over the word's
// synsets: the reference the precomputed lists must equal.
func domainsOfByScan(db *Database, word string) []string {
	set := make(map[string]struct{})
	for _, id := range db.byWord[word] {
		for _, d := range db.synsets[id].Domains {
			set[d] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// TestDomainsOfMatchesScan: over the whole vocabulary (and a word outside
// it) the precomputed DomainsOf equals the scan.
func TestDomainsOfMatchesScan(t *testing.T) {
	uni, db := testDB(t)
	words := append([]string{"not-a-word"}, uni.Background...)
	for _, topic := range uni.Topics {
		words = append(words, topic.Terms...)
	}
	for w := range db.byWord {
		words = append(words, w)
	}
	for _, w := range words {
		if got, want := db.DomainsOf(w), domainsOfByScan(db, w); !slices.Equal(got, want) {
			t.Fatalf("DomainsOf(%q) = %v, scan %v", w, got, want)
		}
	}
}

// TestDomainsOfAllocs: a lookup — one per query term in the semantic
// analysis — allocates nothing.
func TestDomainsOfAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	uni, db := testDB(t)
	word := uni.Background[0]
	if n := testing.AllocsPerRun(200, func() { db.DomainsOf(word) }); n != 0 {
		t.Errorf("DomainsOf allocates %.1f times, want 0", n)
	}
}
