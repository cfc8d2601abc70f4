package queries

import (
	"fmt"
	"math/rand"
	"sort"
)

// Sensitive topic names, following Google's privacy policy categories cited
// by the paper (§V-A): health, politics, sexuality, religion.
const (
	TopicHealth   = "health"
	TopicPolitics = "politics"
	TopicSex      = "sex"
	TopicReligion = "religion"
)

// DefaultSensitiveTopics is the default set of semantically sensitive topics
// a CYCLOSA user can select.
var DefaultSensitiveTopics = []string{TopicHealth, TopicPolitics, TopicSex, TopicReligion}

// generalTopicNames are the non-sensitive topics of the synthetic universe.
var generalTopicNames = []string{
	"sports", "travel", "cooking", "music", "movies", "technology",
	"finance", "shopping", "weather", "cars", "gardening", "pets",
	"education", "games", "celebrity", "realestate",
}

// Topic is one topic of the synthetic universe with its term vocabulary.
type Topic struct {
	// Name identifies the topic (e.g. "health").
	Name string
	// Sensitive marks the topic as privacy-sensitive.
	Sensitive bool
	// Terms is the topic's vocabulary, most characteristic first.
	Terms []string
}

// Universe is the shared topic/term model: the synthetic stand-in for the
// vocabulary structure of the AOL log. The WordNet substitute, the LDA
// training corpus and the workload generator all draw from the same
// universe so that the semantic categorizer faces a realistic mix of
// unambiguous, polysemous and background terms.
type Universe struct {
	// Topics holds all topics, sensitive first.
	Topics []Topic
	// Background is the general vocabulary mixed into queries of any topic
	// ("free", "best", "online", ...).
	Background []string
	// CorpusFiller is the filler vocabulary of the LDA training corpus (the
	// "video", "HD", "full" of the paper's adult-video titles): domain-text
	// noise that mostly does NOT appear in everyday search queries. A small
	// overlap with Background is injected at corpus-generation time.
	CorpusFiller []string

	byName map[string]*Topic
	// polysemous maps a term to all topics that contain it (only terms with
	// more than one topic).
	polysemous map[string][]string
}

// UniverseConfig controls universe generation.
type UniverseConfig struct {
	// Seed drives all randomness.
	Seed int64
	// TermsPerTopic is the vocabulary size of each topic (default 160).
	TermsPerTopic int
	// BackgroundTerms is the size of the shared background vocabulary
	// (default 220).
	BackgroundTerms int
	// PolysemyFraction is the fraction of each sensitive topic's terms that
	// also appear in some general topic (default 0.05). Polysemy is what
	// makes a pure dictionary lookup (the WordNet approach) imprecise, as
	// the paper measures (precision 0.53).
	PolysemyFraction float64
}

func (c *UniverseConfig) applyDefaults() {
	if c.TermsPerTopic == 0 {
		c.TermsPerTopic = 160
	}
	if c.BackgroundTerms == 0 {
		c.BackgroundTerms = 220
	}
	if c.PolysemyFraction == 0 {
		c.PolysemyFraction = 0.05
	}
}

// NewUniverse generates the synthetic topic/term universe.
func NewUniverse(cfg UniverseConfig) *Universe {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	words := newWordGen(rng)

	u := &Universe{
		byName:     make(map[string]*Topic),
		polysemous: make(map[string][]string),
	}

	names := make([]string, 0, len(DefaultSensitiveTopics)+len(generalTopicNames))
	names = append(names, DefaultSensitiveTopics...)
	names = append(names, generalTopicNames...)
	sensitiveCount := len(DefaultSensitiveTopics)

	for i, name := range names {
		topic := Topic{
			Name:      name,
			Sensitive: i < sensitiveCount,
			Terms:     make([]string, 0, cfg.TermsPerTopic),
		}
		for len(topic.Terms) < cfg.TermsPerTopic {
			topic.Terms = append(topic.Terms, words.next())
		}
		u.Topics = append(u.Topics, topic)
	}

	for i := 0; i < cfg.BackgroundTerms; i++ {
		u.Background = append(u.Background, words.next())
	}
	for i := 0; i < cfg.BackgroundTerms; i++ {
		u.CorpusFiller = append(u.CorpusFiller, words.next())
	}

	// Inject polysemy: copy a fraction of each sensitive topic's terms into
	// general topics. Polysemous words are peripheral vocabulary, not the
	// domain's most characteristic terms, so copies are drawn from the tail
	// half of the sensitive topic and placed in the tail of the general
	// topic (both Zipf-rare). A dictionary lookup (WordNet) still trips on
	// them; a frequency-driven model (LDA) mostly does not — reproducing
	// the precision gap of Table II.
	for si := 0; si < sensitiveCount; si++ {
		n := int(float64(cfg.TermsPerTopic) * cfg.PolysemyFraction)
		for j := 0; j < n; j++ {
			src := cfg.TermsPerTopic/2 + rng.Intn(cfg.TermsPerTopic/2)
			term := u.Topics[si].Terms[src]
			gi := sensitiveCount + rng.Intn(len(names)-sensitiveCount)
			tail := len(u.Topics[gi].Terms) / 4
			slot := tail + rng.Intn(len(u.Topics[gi].Terms)-tail)
			u.Topics[gi].Terms[slot] = term
		}
	}

	for i := range u.Topics {
		u.byName[u.Topics[i].Name] = &u.Topics[i]
	}
	u.indexPolysemy()
	return u
}

func (u *Universe) indexPolysemy() {
	owner := make(map[string][]string)
	for _, t := range u.Topics {
		seen := make(map[string]struct{})
		for _, term := range t.Terms {
			if _, dup := seen[term]; dup {
				continue
			}
			seen[term] = struct{}{}
			owner[term] = append(owner[term], t.Name)
		}
	}
	for term, topics := range owner {
		if len(topics) > 1 {
			sort.Strings(topics)
			u.polysemous[term] = topics
		}
	}
}

// Topic returns the topic with the given name, or nil.
func (u *Universe) Topic(name string) *Topic { return u.byName[name] }

// TopicNames returns all topic names, sensitive topics first.
func (u *Universe) TopicNames() []string {
	names := make([]string, len(u.Topics))
	for i, t := range u.Topics {
		names[i] = t.Name
	}
	return names
}

// SensitiveTopicNames returns the names of the sensitive topics.
func (u *Universe) SensitiveTopicNames() []string {
	var names []string
	for _, t := range u.Topics {
		if t.Sensitive {
			names = append(names, t.Name)
		}
	}
	return names
}

// TopicsOf returns the names of all topics containing term (nil if the term
// is background-only or unknown).
func (u *Universe) TopicsOf(term string) []string {
	if topics, ok := u.polysemous[term]; ok {
		return topics
	}
	for _, t := range u.Topics {
		for _, tt := range t.Terms {
			if tt == term {
				return []string{t.Name}
			}
		}
	}
	return nil
}

// wordGen produces unique pronounceable pseudo-words from syllables, so the
// synthetic vocabulary tokenizes like real query terms.
type wordGen struct {
	rng  *rand.Rand
	seen map[string]struct{}
}

var _syllables = []string{
	"ba", "be", "bi", "bo", "bu", "ca", "ce", "ci", "co", "cu",
	"da", "de", "di", "do", "du", "fa", "fe", "fi", "fo", "fu",
	"ga", "ge", "gi", "go", "gu", "ka", "ke", "ki", "ko", "ku",
	"la", "le", "li", "lo", "lu", "ma", "me", "mi", "mo", "mu",
	"na", "ne", "ni", "no", "nu", "pa", "pe", "pi", "po", "pu",
	"ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su",
	"ta", "te", "ti", "to", "tu", "va", "ve", "vi", "vo", "vu",
	"za", "ze", "zi", "zo", "zu",
}

func newWordGen(rng *rand.Rand) *wordGen {
	return &wordGen{rng: rng, seen: make(map[string]struct{})}
}

func (g *wordGen) next() string {
	for attempt := 0; ; attempt++ {
		n := 2 + g.rng.Intn(3) // 2-4 syllables
		w := ""
		for i := 0; i < n; i++ {
			w += _syllables[g.rng.Intn(len(_syllables))]
		}
		if _, dup := g.seen[w]; !dup {
			g.seen[w] = struct{}{}
			return w
		}
		if attempt > 10000 {
			// Fall back to a numbered word; statistically unreachable for the
			// vocabulary sizes used here but guarantees termination.
			w = fmt.Sprintf("%s%d", w, len(g.seen))
			g.seen[w] = struct{}{}
			return w
		}
	}
}
