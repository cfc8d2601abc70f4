package queries

import (
	"sort"
	"strings"
	"testing"
)

func TestNewUniverseShape(t *testing.T) {
	uni := NewUniverse(UniverseConfig{Seed: 1})
	if len(uni.Topics) != len(DefaultSensitiveTopics)+len(generalTopicNames) {
		t.Fatalf("topic count = %d", len(uni.Topics))
	}
	for i, topic := range uni.Topics {
		wantSensitive := i < len(DefaultSensitiveTopics)
		if topic.Sensitive != wantSensitive {
			t.Errorf("topic %s sensitive = %v, want %v", topic.Name, topic.Sensitive, wantSensitive)
		}
		if len(topic.Terms) != 160 {
			t.Errorf("topic %s terms = %d, want 160", topic.Name, len(topic.Terms))
		}
	}
	if len(uni.Background) != 220 {
		t.Errorf("background terms = %d, want 220", len(uni.Background))
	}
}

func TestUniverseDeterministic(t *testing.T) {
	a := NewUniverse(UniverseConfig{Seed: 5})
	b := NewUniverse(UniverseConfig{Seed: 5})
	for i := range a.Topics {
		for j := range a.Topics[i].Terms {
			if a.Topics[i].Terms[j] != b.Topics[i].Terms[j] {
				t.Fatal("same seed produced different universes")
			}
		}
	}
}

func TestUniverseLookup(t *testing.T) {
	uni := NewUniverse(UniverseConfig{Seed: 1})
	if uni.Topic("health") == nil {
		t.Fatal("missing health topic")
	}
	if uni.Topic("nope") != nil {
		t.Fatal("unknown topic should be nil")
	}
	names := uni.TopicNames()
	if names[0] != "health" {
		t.Errorf("first topic = %s, want health (sensitive first)", names[0])
	}
	sens := uni.SensitiveTopicNames()
	if len(sens) != 4 {
		t.Errorf("sensitive topics = %v", sens)
	}
}

func TestUniversePolysemy(t *testing.T) {
	uni := NewUniverse(UniverseConfig{Seed: 2})
	poly := make([]string, 0, len(uni.polysemous))
	for term := range uni.polysemous {
		poly = append(poly, term)
	}
	sort.Strings(poly)
	if len(poly) == 0 {
		t.Fatal("expected polysemous terms (WordNet false-positive source)")
	}
	for _, term := range poly[:min(5, len(poly))] {
		topics := uni.TopicsOf(term)
		if len(topics) < 2 {
			t.Errorf("term %q listed polysemous but in %v", term, topics)
		}
	}
	// A non-polysemous topic term maps to exactly one topic.
	for _, term := range uni.Topic("sports").Terms {
		topics := uni.TopicsOf(term)
		if len(topics) == 1 && topics[0] == "sports" {
			return // found at least one unambiguous sports term
		}
	}
	t.Error("no unambiguous sports terms found")
}

func TestTopicsOfUnknownTerm(t *testing.T) {
	uni := NewUniverse(UniverseConfig{Seed: 2})
	if got := uni.TopicsOf("definitely-not-a-term"); got != nil {
		t.Errorf("TopicsOf(unknown) = %v", got)
	}
}

func TestWordGenUniqueAndWordLike(t *testing.T) {
	uni := NewUniverse(UniverseConfig{Seed: 4})
	seen := make(map[string]int)
	for _, topic := range uni.Topics {
		for _, term := range topic.Terms {
			seen[term]++
			if strings.ContainsAny(term, " \t0123456789") {
				t.Errorf("term %q not word-like", term)
			}
		}
	}
	// Terms may repeat across topics only via injected polysemy, which was
	// tested above; within a topic they must be unique.
	for _, topic := range uni.Topics {
		inTopic := make(map[string]struct{})
		for _, term := range topic.Terms {
			if _, dup := inTopic[term]; dup {
				t.Errorf("duplicate term %q within topic %s", term, topic.Name)
			}
			inTopic[term] = struct{}{}
		}
	}
}

func TestTrendingSource(t *testing.T) {
	uni := NewUniverse(UniverseConfig{Seed: 6})
	src := NewTrendingSource(uni, 6)
	batch := src.Batch(50)
	if len(batch) != 50 {
		t.Fatalf("batch size = %d", len(batch))
	}
	sensTerms := make(map[string]struct{})
	for _, name := range uni.SensitiveTopicNames() {
		for _, term := range uni.Topic(name).Terms {
			sensTerms[term] = struct{}{}
		}
	}
	for _, q := range batch {
		if q == "" {
			t.Fatal("empty trending query")
		}
		for _, term := range strings.Fields(q) {
			_, isSens := sensTerms[term]
			_, isPoly := uni.polysemous[term]
			if isSens && !isPoly {
				t.Errorf("trending query %q contains unambiguous sensitive term %q", q, term)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
