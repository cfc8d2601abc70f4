package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
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
