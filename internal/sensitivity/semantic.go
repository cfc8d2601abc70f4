// Package sensitivity implements CYCLOSA's client-side sensitivity analysis
// (§V-A, §V-B): the semantic assessment of a query against user-selected
// sensitive topics, the linkability assessment against the user's own query
// history, and the adaptive-protection policy that maps both to the number k
// of fake queries.
//
// Everything in this package runs on the trusted client machine outside the
// (simulated) enclave, because it only touches the local user's own data —
// mirroring the paper's trusted-code minimization argument (§IV).
package sensitivity

import (
	"cyclosa/internal/lda"
	"cyclosa/internal/wordnet"
)

// Detector decides whether a tokenized query is semantically sensitive. The
// assessment is binary (§V-A1). terms is the analyzer's scratch, reused for
// the next query once IsSensitive returns: a detector must not keep the slice.
type Detector interface {
	IsSensitive(terms []string) bool
}

// WordNetDetector flags queries containing any term of the compiled
// sensitive-domain dictionaries. Its precision suffers from polysemy and its
// recall from database coverage — the two effects Table II measures.
type WordNetDetector struct {
	dict *wordnet.Dictionary
}

var _ Detector = (*WordNetDetector)(nil)

// NewWordNetDetector compiles the dictionaries of the user's selected
// sensitive topics from the lexical database and merges them.
func NewWordNetDetector(db *wordnet.Database, topics []string) *WordNetDetector {
	dict := wordnet.NewDictionary()
	for _, topic := range topics {
		dict = dict.Merge(db.DomainDictionary(topic))
	}
	return &WordNetDetector{dict: dict}
}

// IsSensitive reports whether any query term is in the sensitive dictionary.
func (d *WordNetDetector) IsSensitive(terms []string) bool {
	return d.dict.MatchesAny(terms)
}

// LDADetector flags queries containing any term of the dictionary compiled
// from a trained LDA model's thematic vectors (§V-A1, second approach).
type LDADetector struct {
	dict map[string]struct{}
}

var _ Detector = (*LDADetector)(nil)

// NewLDADetector builds the detector from trained models (one per selected
// sensitive topic), gathering the top termsPerTopic terms of every thematic
// vector.
func NewLDADetector(models []*lda.Model, termsPerTopic int) *LDADetector {
	dict := make(map[string]struct{})
	for _, m := range models {
		for term := range m.Dictionary(termsPerTopic) {
			dict[term] = struct{}{}
		}
	}
	return &LDADetector{dict: dict}
}

// IsSensitive reports whether any query term is in the LDA dictionary.
func (d *LDADetector) IsSensitive(terms []string) bool {
	for _, t := range terms {
		if _, ok := d.dict[t]; ok {
			return true
		}
	}
	return false
}

// CombinedDetector combines WordNet and LDA: a term counts as sensitive if
//
//   - it is in the LDA dictionary and WordNet does not contradict it (the
//     term is unknown to WordNet, or at least one of its WordNet domains is a
//     selected sensitive topic), or
//   - WordNet places it unambiguously in a selected sensitive domain (its
//     only domains are sensitive), even if LDA missed it.
//
// The WordNet veto removes the LDA dictionary's background-noise false
// positives (raising precision); the unambiguous-WordNet clause recovers
// some coverage LDA lost (supporting recall) — yielding the trade-off the
// paper reports for WordNet+LDA in Table II.
type CombinedDetector struct {
	ldaDict     map[string]struct{}
	db          *wordnet.Database
	sensitive   map[string]struct{}
	wordnetDict *wordnet.Dictionary
}

var _ Detector = (*CombinedDetector)(nil)

// NewCombinedDetector builds the combined detector over the lexical database
// and trained LDA models for the selected sensitive topics.
func NewCombinedDetector(db *wordnet.Database, models []*lda.Model, termsPerTopic int, topics []string) *CombinedDetector {
	ldaDict := make(map[string]struct{})
	for _, m := range models {
		for term := range m.Dictionary(termsPerTopic) {
			ldaDict[term] = struct{}{}
		}
	}
	sens := make(map[string]struct{}, len(topics))
	dict := wordnet.NewDictionary()
	for _, t := range topics {
		sens[t] = struct{}{}
		dict = dict.Merge(db.DomainDictionary(t))
	}
	return &CombinedDetector{ldaDict: ldaDict, db: db, sensitive: sens, wordnetDict: dict}
}

// IsSensitive applies the combination rule term by term.
func (d *CombinedDetector) IsSensitive(terms []string) bool {
	for _, t := range terms {
		if d.termSensitive(t) {
			return true
		}
	}
	return false
}

func (d *CombinedDetector) termSensitive(term string) bool {
	domains := d.db.DomainsOf(term)
	_, inLDA := d.ldaDict[term]

	if inLDA {
		if len(domains) == 0 {
			return true // unknown to WordNet: keep the LDA verdict
		}
		for _, dom := range domains {
			if _, ok := d.sensitive[dom]; ok {
				return true // WordNet agrees (at least one sensitive domain)
			}
		}
		return false // WordNet places it only in general domains: veto
	}

	// Not in LDA: accept only if WordNet places it exclusively in selected
	// sensitive domains.
	if len(domains) == 0 {
		return false
	}
	for _, dom := range domains {
		if _, ok := d.sensitive[dom]; !ok {
			return false
		}
	}
	return true
}
