package tmn

import (
	"strings"
	"testing"

	"cyclosa/internal/queries"
)

func TestHeadlineDrawsFromGeneralTopicsOnly(t *testing.T) {
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 13})
	general := make(map[string]struct{})
	for _, topic := range uni.Topics {
		if topic.Sensitive {
			continue
		}
		for _, term := range topic.Terms {
			general[term] = struct{}{}
		}
	}
	feed := NewRSSFeed(uni, 5)
	for i := 0; i < 200; i++ {
		headline := feed.Headline()
		terms := strings.Fields(headline)
		if len(terms) < 2 || len(terms) > 4 {
			t.Fatalf("headline %q has %d terms, want 2-4", headline, len(terms))
		}
		for _, term := range terms {
			if _, ok := general[term]; !ok {
				t.Fatalf("headline term %q is not in any general topic's vocabulary", term)
			}
		}
	}
}
