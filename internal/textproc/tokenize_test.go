package textproc

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"cyclosa/internal/queries"
	"cyclosa/internal/testutil"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		name  string
		query string
		want  []string
	}{
		{"simple", "cheap flights boston", []string{"cheap", "flights", "boston"}},
		{"mixed case", "Cheap FLIGHTS Boston", []string{"cheap", "flights", "boston"}},
		{"punctuation", "flights: NYC->Boston!", []string{"flights", "nyc", "boston"}},
		{"stop words removed", "the best of the best", []string{"best", "best"}},
		{"empty", "", nil},
		{"only stop words", "the of and", nil},
		{"digits kept", "windows 98 drivers", []string{"windows", "98", "drivers"}},
		{"apostrophes split", "o'brien's pub", []string{"o", "brien", "s", "pub"}},
		{"unicode letters", "café münchen", []string{"café", "münchen"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Tokenize(tt.query)
			if len(got) == 0 && len(tt.want) == 0 {
				return
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Tokenize(%q) = %v, want %v", tt.query, got, tt.want)
			}
		})
	}
}

func TestTokenizeNeverReturnsStopWordsOrUppercase(t *testing.T) {
	f := func(s string) bool {
		for _, term := range Tokenize(s) {
			if _, stop := defaultStopWords[strings.ToLower(term)]; stop {
				return false
			}
			for _, r := range term {
				if r >= 'A' && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// referenceTokenize is the tokenizer AppendTokens replaced, kept as its
// definition: FieldsFunc, then one ToLower and one stop-word lookup per
// field.
func referenceTokenize(query string) []string {
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

// checkTokensMatch fails unless Tokenize, and AppendTokens behind a prefix,
// return the reference's terms for query.
func checkTokensMatch(t *testing.T, query string) {
	t.Helper()
	want := referenceTokenize(query)
	if got := Tokenize(query); !slices.Equal(got, want) {
		t.Fatalf("Tokenize(%q) = %q, want %q", query, got, want)
	}
	prefix := []string{"kept"}
	got := AppendTokens(prefix, query)
	if got[0] != "kept" || !slices.Equal(got[1:], want) {
		t.Fatalf("AppendTokens([kept], %q) = %q, want [kept] + %q", query, got, want)
	}
}

// randomTokenizerInput mixes what a tokenizer must get right: upper and lower case,
// stop words in either case, ASCII and other digits, punctuation, letters
// whose lower case has another length, combining marks and invalid UTF-8.
func randomTokenizerInput(rng *rand.Rand) string {
	pieces := []string{
		"the", "The", "OF", "and", "You're", "a", "I",
		"flights", "NYC", "Boston", "café", "MÜNCHEN", "ΣΟΦΙΑ", "İstanbul",
		"Ⅻ", "ǅemal", "東京", "98", "٣٤", "x2", "o'brien's",
		" ", "  ", "-", "->", ":", "!", "\t", "́", " ", "\xff", "\xe2\x82",
	}
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		switch rng.Intn(4) {
		case 0:
			b.WriteRune(rune(rng.Intn(0x3000)))
		default:
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
	}
	return b.String()
}

// AppendTokens must tokenize exactly as the FieldsFunc tokenizer it
// replaced: on every query of a generated workload and on random strings.
func TestAppendTokensMatchesTokenize(t *testing.T) {
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 7})
	log := queries.Generate(queries.GeneratorConfig{Seed: 7, Universe: uni, NumUsers: 20, MeanQueriesPerUser: 50})
	for _, q := range log.Queries {
		checkTokensMatch(t, q.Text)
		checkTokensMatch(t, strings.ToUpper(q.Text))
	}
	for _, topic := range uni.Topics {
		checkTokensMatch(t, strings.Join(topic.Terms, " "))
	}
	checkTokensMatch(t, strings.Join(uni.Background, ", "))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		checkTokensMatch(t, randomTokenizerInput(rng))
	}
}

// Tokenizing a lower-case query into a slice with room for its terms
// allocates nothing: every term is a substring of the query.
func TestAppendTokensAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	dst := make([]string, 0, 8)
	query := "cheap flights to boston: 2 adults, the 98 deals"
	if n := testing.AllocsPerRun(200, func() {
		dst = AppendTokens(dst[:0], query)
	}); n != 0 {
		t.Errorf("AppendTokens allocates %.1f times per op, want 0", n)
	}
	if want := []string{"cheap", "flights", "boston", "2", "adults", "98", "deals"}; !slices.Equal(dst, want) {
		t.Errorf("AppendTokens = %q, want %q", dst, want)
	}
}

func FuzzAppendTokens(f *testing.F) {
	for _, s := range []string{"", "cheap flights boston", "flights: NYC->Boston!", "the OF And", "café MÜNCHEN ΣΟΦΙΑ", "o'brien's \xff pub", "İstanbul ٣٤ 東京"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, query string) {
		checkTokensMatch(t, query)
	})
}
