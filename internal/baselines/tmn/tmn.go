// Package tmn holds the fake-query source of the TrackMeNot baseline
// (§II-A2): a browser extension that periodically sends fake queries to the
// search engine on behalf of the user, obfuscating the profile the engine
// accumulates. The user's identity remains visible (no unlinkability) and
// the fakes are generated from RSS feeds, which makes them distributionally
// distant from the user's own interests — the weakness the paper's 45%
// re-identification rate exposes. The evaluation (Fig 5, the fake-source
// ablation) draws TrackMeNot's fakes from RSSFeed.
package tmn

import (
	"math/rand"
	"strings"

	"cyclosa/internal/queries"
)

// RSSFeed simulates the news feeds TrackMeNot samples fake queries from:
// headline-like phrases over general topics, drawn uniformly (no relation to
// any particular user's profile).
type RSSFeed struct {
	uni *queries.Universe
	rng *rand.Rand
}

// NewRSSFeed builds a feed over the universe.
func NewRSSFeed(uni *queries.Universe, seed int64) *RSSFeed {
	return &RSSFeed{uni: uni, rng: rand.New(rand.NewSource(seed))}
}

// Headline returns one feed-derived fake query.
func (f *RSSFeed) Headline() string {
	var general []queries.Topic
	for _, t := range f.uni.Topics {
		if !t.Sensitive {
			general = append(general, t)
		}
	}
	topic := general[f.rng.Intn(len(general))]
	n := 2 + f.rng.Intn(3)
	terms := make([]string, 0, n)
	for i := 0; i < n; i++ {
		// Uniform draw over the full topic vocabulary: headlines do not
		// follow any user's personal term distribution.
		terms = append(terms, topic.Terms[f.rng.Intn(len(topic.Terms))])
	}
	return strings.Join(terms, " ")
}
