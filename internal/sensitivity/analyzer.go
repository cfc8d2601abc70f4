package sensitivity

import (
	"math"

	"cyclosa/internal/textproc"
)

// DefaultKMax is the paper's maximum number of fake queries (Fig 7 uses
// kmax = 7).
const DefaultKMax = 7

// Assessment is the outcome of analyzing one query.
type Assessment struct {
	// Query is the analyzed query text.
	Query string
	// SemanticSensitive is the binary semantic verdict.
	SemanticSensitive bool
	// Linkability is the linkability score in [0, 1].
	Linkability float64
	// K is the resulting number of fake queries.
	K int

	// terms is the tokenized query, kept so that RecordQuery does not
	// tokenize it again.
	terms []string
}

// Analyzer combines the semantic detector and the linkability assessor into
// CYCLOSA's adaptive query-protection policy (§V-B):
//
//   - semantically sensitive queries get the maximum protection kmax;
//   - otherwise k is the linear projection of the linkability score onto
//     [0, kmax].
type Analyzer struct {
	detector Detector
	link     *Linkability
	kmax     int
}

// NewAnalyzer builds an analyzer. kmax <= 0 selects DefaultKMax. A nil
// detector treats every query as semantically non-sensitive; a nil
// linkability assessor scores every query 0.
func NewAnalyzer(detector Detector, link *Linkability, kmax int) *Analyzer {
	if kmax <= 0 {
		kmax = DefaultKMax
	}
	return &Analyzer{detector: detector, link: link, kmax: kmax}
}

// KMax returns the maximum number of fake queries.
func (a *Analyzer) KMax() int { return a.kmax }

// Assess analyzes a query and derives its protection level. It does not
// record the query in the local history; call RecordQuery once the query has
// actually been sent.
func (a *Analyzer) Assess(query string) Assessment {
	out := Assessment{Query: query, terms: textproc.Tokenize(query)}
	if a.detector != nil {
		out.SemanticSensitive = a.detector.IsSensitive(out.terms)
	}
	if a.link != nil {
		out.Linkability = a.link.scoreTerms(out.terms)
	}
	out.K = a.projectK(out.SemanticSensitive, out.Linkability)
	return out
}

// RecordQuery adds a sent query to the local history used by the
// linkability assessment. assessed must be the value Assess returned for it.
func (a *Analyzer) RecordQuery(assessed Assessment) {
	if a.link != nil {
		a.link.addTerms(assessed.terms)
	}
}

// projectK maps the two assessments to the number of fake queries.
func (a *Analyzer) projectK(semantic bool, linkScore float64) int {
	if semantic {
		return a.kmax
	}
	if linkScore < 0 {
		linkScore = 0
	}
	if linkScore > 1 {
		linkScore = 1
	}
	return int(math.Round(linkScore * float64(a.kmax)))
}
