package textproc

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// vector is the binary term vector of a query (§V-A2): its distinct terms.
// It and vectorCosine are the entry-by-entry reference SimilarityIndex is
// checked against.
type vector map[string]struct{}

func newVector(query string) vector {
	v := make(vector)
	for _, t := range Tokenize(query) {
		v[t] = struct{}{}
	}
	return v
}

// vectorCosine is the cosine similarity |a∩b| / (sqrt(|a|)·sqrt(|b|)) of
// two binary term vectors, 0 when either is empty.
func vectorCosine(a, b vector) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	inter := 0
	for t := range a {
		if _, ok := b[t]; ok {
			inter++
		}
	}
	return cosine(inter, len(a), len(b))
}

func TestCosine(t *testing.T) {
	tests := []struct {
		name string
		a, b string
		want float64
	}{
		{"identical", "cheap flights boston", "cheap flights boston", 1.0},
		{"disjoint", "cheap flights", "pizza recipe", 0.0},
		{"half overlap", "cheap flights", "cheap hotels", 0.5},
		{"empty a", "", "cheap flights", 0.0},
		{"both empty", "", "", 0.0},
		{"subset", "flights", "cheap flights", 1 / math.Sqrt2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := vectorCosine(newVector(tt.a), newVector(tt.b))
			if !almostEqual(got, tt.want) {
				t.Errorf("vectorCosine(%q, %q) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestCosineSymmetricAndBounded(t *testing.T) {
	f := func(a, b string) bool {
		va, vb := newVector(a), newVector(b)
		c1, c2 := vectorCosine(va, vb), vectorCosine(vb, va)
		return almostEqual(c1, c2) && c1 >= 0 && c1 <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCosineSelfIsOne(t *testing.T) {
	f := func(s string) bool {
		v := newVector(s)
		if len(v) == 0 {
			return almostEqual(vectorCosine(v, v), 0)
		}
		return almostEqual(vectorCosine(v, v), 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
