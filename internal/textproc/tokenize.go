// Package textproc provides the text-processing primitives shared by the
// CYCLOSA sensitivity analysis, the fake-query machinery and the SimAttack
// adversary: tokenization, stop-word filtering, binary term vectors, cosine
// similarity and exponential smoothing of ranked similarity lists.
//
// The paper (§V-A2, §VII-E) represents a query as a binary vector of its
// terms, compares it against past queries with cosine similarity, and
// aggregates the ranked similarities with exponential smoothing. This package
// implements exactly those operations, and SimilarityIndex, which answers
// the aggregate over a whole set of past queries without visiting the ones
// that share no term with the query.
package textproc

import (
	"strings"
	"unicode"
)

// defaultStopWords is the stop-word list applied by Tokenize. It covers the
// high-frequency English function words that carry no topical signal; queries
// in the AOL-like workload are short, so an aggressive list would destroy
// recall and a tiny one would let "the"/"of" dominate cosine similarity.
var defaultStopWords = map[string]struct{}{
	"a": {}, "an": {}, "and": {}, "are": {}, "as": {}, "at": {}, "be": {},
	"but": {}, "by": {}, "for": {}, "from": {}, "has": {}, "have": {},
	"he": {}, "her": {}, "his": {}, "how": {}, "i": {}, "in": {}, "is": {},
	"it": {}, "its": {}, "me": {}, "my": {}, "of": {}, "on": {}, "or": {},
	"our": {}, "she": {}, "that": {}, "the": {}, "their": {}, "them": {},
	"then": {}, "there": {}, "these": {}, "they": {}, "this": {}, "to": {},
	"was": {}, "we": {}, "were": {}, "what": {}, "when": {}, "where": {},
	"which": {}, "who": {}, "why": {}, "will": {}, "with": {}, "you": {},
	"your": {},
}

// Tokenize splits a raw query string into lower-cased terms, dropping
// punctuation and stop words. Terms are split on any non-letter, non-digit
// rune, so "flights: NYC->Boston" yields ["flights", "nyc", "boston"].
func Tokenize(query string) []string {
	fields := strings.FieldsFunc(query, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
	terms := make([]string, 0, len(fields))
	for _, f := range fields {
		t := strings.ToLower(f)
		if _, stop := defaultStopWords[t]; stop {
			continue
		}
		terms = append(terms, t)
	}
	return terms
}
