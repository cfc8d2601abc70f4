package textproc

import "math"

// Vector is a binary term vector: the set of distinct terms of a query.
// The paper represents queries as binary vectors (§V-A2), so term
// multiplicity is intentionally discarded.
type Vector map[string]struct{}

// NewVector builds the binary term vector of a query string.
func NewVector(query string) Vector {
	return NewVectorFromTerms(Tokenize(query))
}

// NewVectorFromTerms builds a binary term vector from pre-tokenized terms.
func NewVectorFromTerms(terms []string) Vector {
	v := make(Vector, len(terms))
	for _, t := range terms {
		v[t] = struct{}{}
	}
	return v
}

// Contains reports whether term is present in the vector.
func (v Vector) Contains(term string) bool {
	_, ok := v[term]
	return ok
}

// Len returns the number of distinct terms.
func (v Vector) Len() int { return len(v) }

// Terms returns the distinct terms in unspecified order.
func (v Vector) Terms() []string {
	out := make([]string, 0, len(v))
	for t := range v {
		out = append(out, t)
	}
	return out
}

// Cosine returns the cosine similarity of two binary term vectors:
// |a∩b| / (sqrt(|a|)·sqrt(|b|)). It is 0 when either vector is empty.
func Cosine(a, b Vector) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	inter := 0
	for t := range small {
		if _, ok := large[t]; ok {
			inter++
		}
	}
	return cosine(inter, len(a), len(b))
}

// cosine is the cosine similarity of two binary term vectors of na and nb
// distinct terms that share inter of them. Cosine and SimilarityIndex both
// evaluate this one expression, which is what keeps them bit-identical.
func cosine(inter, na, nb int) float64 {
	if inter == 0 {
		return 0
	}
	return float64(inter) / (math.Sqrt(float64(na)) * math.Sqrt(float64(nb)))
}

// Jaccard returns the Jaccard similarity |a∩b| / |a∪b| of two binary term
// vectors. Used by the fake-query plausibility ablation.
func Jaccard(a, b Vector) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(b) < len(a) {
		small, large = b, a
	}
	inter := 0
	for t := range small {
		if _, ok := large[t]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}
