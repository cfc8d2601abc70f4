// Package wordnet implements the lexical-database substrate CYCLOSA's
// semantic categorizer relies on: a WordNet-like database of synsets mapped
// to domain labels in the style of the eXtended WordNet Domains library.
//
// The paper compiles, for each user-selected sensitive topic, a dictionary of
// all keywords whose synsets map to domains related to that topic (§V-A1).
// Real WordNet is imperfect for this purpose in two measured ways:
//
//   - coverage gaps — domain vocabulary missing from the database lowers
//     recall (the paper measures WordNet recall at 0.83);
//   - polysemy — words whose synsets span both a sensitive and a general
//     domain produce false positives, lowering precision (measured 0.53).
//
// The substitute database is built from the synthetic query universe and
// reproduces both effects with controllable magnitudes.
package wordnet

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"cyclosa/internal/queries"
)

// Synset is a set of synonymous words tagged with domain labels.
type Synset struct {
	// ID uniquely identifies the synset.
	ID int
	// Words are the synonym members of the synset.
	Words []string
	// Domains are the eXtended-WordNet-Domains-style labels of the synset.
	Domains []string
}

// Database is the lexical database: synsets indexed by word and by domain.
type Database struct {
	synsets   []Synset
	byWord    map[string][]int    // word -> synset IDs
	byDomain  map[string][]int    // domain -> synset IDs
	domainsOf map[string][]string // word -> sorted distinct domains of its synsets
}

// BuildConfig controls database construction.
type BuildConfig struct {
	// Seed drives the randomized coverage and synset grouping.
	Seed int64
	// Coverage is the fraction of each topic's vocabulary present in the
	// database (default 0.90 — WordNet's measured recall in Table II stems
	// directly from coverage).
	Coverage float64
	// SynonymsPerSynset is the mean number of words grouped into one synset
	// (default 2).
	SynonymsPerSynset int
	// LooseSynonymy is the mean number of everyday background words a
	// topical synset absorbs as loose synonyms (default 2.5). Real
	// WordNet synsets routinely contain common words among their members;
	// compiling a domain dictionary therefore sweeps in everyday vocabulary
	// — the main reason the paper measures WordNet precision at only 0.53.
	LooseSynonymy float64
}

func (c *BuildConfig) applyDefaults() {
	if c.Coverage == 0 {
		c.Coverage = 0.90
	}
	if c.SynonymsPerSynset == 0 {
		c.SynonymsPerSynset = 2
	}
	if c.LooseSynonymy == 0 {
		c.LooseSynonymy = 2.5
	}
}

// Build constructs the database from a query universe. Each universe topic
// becomes a domain; topic terms are grouped into synsets carrying every
// domain that contains them (polysemous terms therefore carry both a
// sensitive and a general domain, exactly the WordNet false-positive
// mechanism). Background terms map to the catch-all "factotum" domain.
func Build(uni *queries.Universe, cfg BuildConfig) *Database {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	db := &Database{
		byWord:   make(map[string][]int),
		byDomain: make(map[string][]int),
	}

	// Collect, per term, the set of domains (topics) it belongs to.
	termDomains := make(map[string][]string)
	var orderedTerms []string
	for _, topic := range uni.Topics {
		for _, term := range topic.Terms {
			if _, seen := termDomains[term]; !seen {
				orderedTerms = append(orderedTerms, term)
			}
			termDomains[term] = appendUnique(termDomains[term], topic.Name)
		}
	}
	for _, term := range uni.Background {
		if _, seen := termDomains[term]; !seen {
			orderedTerms = append(orderedTerms, term)
		}
		termDomains[term] = appendUnique(termDomains[term], "factotum")
	}

	// Apply coverage: drop a fraction of terms entirely (not in WordNet).
	var covered []string
	for _, term := range orderedTerms {
		if rng.Float64() < cfg.Coverage {
			covered = append(covered, term)
		}
	}

	// Group covered terms into synsets of 1..2*mean-1 members with
	// compatible domains (same primary domain).
	byPrimary := make(map[string][]string)
	var primaries []string
	for _, term := range covered {
		p := termDomains[term][0]
		if _, seen := byPrimary[p]; !seen {
			primaries = append(primaries, p)
		}
		byPrimary[p] = append(byPrimary[p], term)
	}
	sort.Strings(primaries)

	for _, p := range primaries {
		terms := byPrimary[p]
		for i := 0; i < len(terms); {
			size := 1 + rng.Intn(2*cfg.SynonymsPerSynset-1)
			if i+size > len(terms) {
				size = len(terms) - i
			}
			words := append([]string{}, terms[i:i+size]...)
			// Loose synonymy: topical synsets absorb everyday words,
			// polluting compiled domain dictionaries. LooseSynonymy is the
			// mean number of absorbed words per synset (whole part always
			// absorbed, fractional part Bernoulli).
			if p != "factotum" && len(uni.Background) > 0 {
				absorb := int(cfg.LooseSynonymy)
				if rng.Float64() < cfg.LooseSynonymy-float64(absorb) {
					absorb++
				}
				for a := 0; a < absorb; a++ {
					words = append(words, uni.Background[rng.Intn(len(uni.Background))])
				}
			}
			domainSet := make(map[string]struct{})
			for _, w := range words {
				for _, d := range termDomains[w] {
					domainSet[d] = struct{}{}
				}
			}
			domains := make([]string, 0, len(domainSet))
			for d := range domainSet {
				domains = append(domains, d)
			}
			sort.Strings(domains)
			db.addSynset(words, domains)
			i += size
		}
	}
	db.indexDomains()
	return db
}

// indexDomains computes every word's DomainsOf answer once, so a lookup —
// one per query term in the semantic analysis — allocates nothing.
func (db *Database) indexDomains() {
	db.domainsOf = make(map[string][]string, len(db.byWord))
	for word, ids := range db.byWord {
		var domains []string
		for _, id := range ids {
			domains = append(domains, db.synsets[id].Domains...)
		}
		sort.Strings(domains)
		db.domainsOf[word] = slices.Clip(slices.Compact(domains))
	}
}

func (db *Database) addSynset(words, domains []string) {
	id := len(db.synsets)
	w := make([]string, len(words))
	copy(w, words)
	d := make([]string, len(domains))
	copy(d, domains)
	db.synsets = append(db.synsets, Synset{ID: id, Words: w, Domains: d})
	for _, word := range w {
		db.byWord[word] = append(db.byWord[word], id)
	}
	for _, dom := range d {
		db.byDomain[dom] = append(db.byDomain[dom], id)
	}
}

// DomainsOf returns the domain labels of every synset containing word,
// sorted and distinct (nil for a word not in the database). The slice is
// the database's own: callers must not modify it.
func (db *Database) DomainsOf(word string) []string {
	return db.domainsOf[word]
}

// DomainDictionary compiles the keyword dictionary of the given domains: all
// words of all synsets labelled with at least one of the domains. This is
// the dictionary-compilation step of CYCLOSA's semantic analysis (§V-A1).
func (db *Database) DomainDictionary(domains ...string) *Dictionary {
	dict := NewDictionary(domains...)
	for _, dom := range domains {
		for _, id := range db.byDomain[dom] {
			for _, w := range db.synsets[id].Words {
				dict.Add(w)
			}
		}
	}
	return dict
}

// Dictionary is a compiled keyword set for one or more sensitive topics.
type Dictionary struct {
	domains []string
	terms   map[string]struct{}
}

// NewDictionary creates an empty dictionary labelled with the given domains.
func NewDictionary(domains ...string) *Dictionary {
	d := make([]string, len(domains))
	copy(d, domains)
	return &Dictionary{domains: d, terms: make(map[string]struct{})}
}

// Add inserts a term.
func (d *Dictionary) Add(term string) { d.terms[term] = struct{}{} }

// Contains reports whether term is in the dictionary.
func (d *Dictionary) Contains(term string) bool {
	_, ok := d.terms[term]
	return ok
}

// MatchesAny reports whether any of the terms is in the dictionary: the
// paper's binary semantic assessment ("the query includes at least one term
// which belongs to a dictionary related to a sensitive topic").
func (d *Dictionary) MatchesAny(terms []string) bool {
	for _, t := range terms {
		if d.Contains(t) {
			return true
		}
	}
	return false
}

// Merge returns a new dictionary containing the union of d and other.
func (d *Dictionary) Merge(other *Dictionary) *Dictionary {
	out := NewDictionary(append(append([]string{}, d.domains...), other.domains...)...)
	for t := range d.terms {
		out.Add(t)
	}
	for t := range other.terms {
		out.Add(t)
	}
	return out
}

// Len returns the number of terms.
func (d *Dictionary) Len() int { return len(d.terms) }

// Terms returns the dictionary terms, sorted.
func (d *Dictionary) Terms() []string {
	out := make([]string, 0, len(d.terms))
	for t := range d.terms {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// String summarizes the dictionary.
func (d *Dictionary) String() string {
	return fmt.Sprintf("dictionary{domains=%v terms=%d}", d.domains, len(d.terms))
}

func appendUnique(xs []string, x string) []string {
	for _, v := range xs {
		if v == x {
			return xs
		}
	}
	return append(xs, x)
}
