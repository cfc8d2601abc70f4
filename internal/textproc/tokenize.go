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
	return AppendTokens(nil, query)
}

// AppendTokens appends the terms Tokenize returns for query to dst. A term
// already in lower case is a substring of query, so tokenizing a lower-case
// query into a dst with room for its terms allocates nothing.
func AppendTokens(dst []string, query string) []string {
	start := -1
	for i, r := range query {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			dst = appendTerm(dst, query[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = appendTerm(dst, query[start:])
	}
	return dst
}

// appendTerm appends one field of a query, lower-cased, unless it is a stop
// word.
func appendTerm(dst []string, field string) []string {
	t := strings.ToLower(field)
	if _, stop := defaultStopWords[t]; stop {
		return dst
	}
	return append(dst, t)
}
