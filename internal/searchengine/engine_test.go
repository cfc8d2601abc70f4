package searchengine

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cyclosa/internal/queries"
)

var t0 = time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)

func testEngine(t *testing.T) (*queries.Universe, *Engine) {
	t.Helper()
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 30})
	return uni, New(uni, Config{Seed: 30, NumDocs: 1500})
}

func TestSearchReturnsRankedResults(t *testing.T) {
	uni, e := testEngine(t)
	q := uni.Topic("travel").Terms[0] + " " + uni.Topic("travel").Terms[1]
	res, err := e.Search("client-1", q, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results for head topic terms")
	}
	if len(res) > 10 {
		t.Errorf("result page size = %d", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Error("results not sorted by score")
		}
	}
	for _, r := range res {
		if r.URL == "" || r.Title == "" || len(r.Terms) == 0 {
			t.Errorf("incomplete result: %+v", r)
		}
	}
}

func TestSearchDeterministic(t *testing.T) {
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 31})
	e1 := New(uni, Config{Seed: 31, NumDocs: 800})
	e2 := New(uni, Config{Seed: 31, NumDocs: 800})
	q := uni.Topic("music").Terms[0]
	r1, err := e1.Search("s", q, t0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Search("s", q, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatal("result counts differ")
	}
	for i := range r1 {
		if r1[i].DocID != r2[i].DocID {
			t.Fatal("rankings differ for identical engines")
		}
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	_, e := testEngine(t)
	if _, err := e.Search("s", "", t0); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("empty query err = %v", err)
	}
	if _, err := e.Search("s", "the of and", t0); !errors.Is(err, ErrEmptyQuery) {
		t.Errorf("stop-words-only query err = %v", err)
	}
}

func TestSearchUnknownTermsYieldEmptyPage(t *testing.T) {
	_, e := testEngine(t)
	res, err := e.Search("s", "zzzzunknownzzzz", t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("unknown term returned %d results", len(res))
	}
}

func TestDirectResultsMatchUnprotectedSearch(t *testing.T) {
	uni, e := testEngine(t)
	q := uni.Topic("cooking").Terms[0]
	direct := e.DirectResults(q)
	res, err := e.Search("s", q, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(res) {
		t.Fatal("direct result count differs")
	}
	for i := range direct {
		if direct[i].DocID != res[i].DocID {
			t.Fatal("direct ranking differs from served ranking")
		}
	}
	// DirectResults must not be observed or throttled.
	if len(e.Observations()) != 1 {
		t.Errorf("observations = %d, want 1 (only the Search call)", len(e.Observations()))
	}
}

func TestORQueryMergesDisjuncts(t *testing.T) {
	uni, e := testEngine(t)
	qa := uni.Topic("travel").Terms[0]
	qb := uni.Topic("cars").Terms[0]
	merged, err := e.Search("s", qa+ORSeparator+qb, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) == 0 {
		t.Fatal("no merged results")
	}
	pageA := e.DirectResults(qa)
	pageB := e.DirectResults(qb)
	inPage := func(page []Result, id int) bool {
		for _, r := range page {
			if r.DocID == id {
				return true
			}
		}
		return false
	}
	fromA, fromB := 0, 0
	for _, r := range merged {
		if inPage(pageA, r.DocID) {
			fromA++
		}
		if inPage(pageB, r.DocID) {
			fromB++
		}
	}
	if fromA == 0 || fromB == 0 {
		t.Errorf("merged page not mixed: fromA=%d fromB=%d", fromA, fromB)
	}
	// The real query's results are diluted: strictly fewer of its results
	// fit in the page than in a direct query (the accuracy-loss mechanism).
	if fromA >= len(pageA) {
		t.Errorf("OR merge did not dilute: fromA=%d direct=%d", fromA, len(pageA))
	}
	// No duplicates.
	seen := make(map[int]struct{})
	for _, r := range merged {
		if _, dup := seen[r.DocID]; dup {
			t.Error("duplicate doc in merged page")
		}
		seen[r.DocID] = struct{}{}
	}
}

func TestRateLimiting(t *testing.T) {
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 32})
	e := New(uni, Config{
		Seed: 32, NumDocs: 200,
		RateLimitPerHour:     60, // 1/min
		Burst:                5,
		BlockAfterViolations: 10,
	})
	q := uni.Topic("sports").Terms[0]

	// Burst of 5 admitted, 6th rate-limited.
	for i := 0; i < 5; i++ {
		if _, err := e.Search("bot", q, t0); err != nil {
			t.Fatalf("query %d rejected: %v", i, err)
		}
	}
	if _, err := e.Search("bot", q, t0); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("6th query err = %v, want ErrRateLimited", err)
	}

	// Tokens refill with time: one minute buys one query.
	if _, err := e.Search("bot", q, t0.Add(90*time.Second)); err != nil {
		t.Fatalf("after refill err = %v", err)
	}

	// Another source is unaffected.
	if _, err := e.Search("other", q, t0); err != nil {
		t.Fatalf("other source err = %v", err)
	}
}

func TestBotDetectionBan(t *testing.T) {
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 33})
	e := New(uni, Config{
		Seed: 33, NumDocs: 200,
		RateLimitPerHour:     60,
		Burst:                2,
		BlockAfterViolations: 3,
	})
	q := uni.Topic("sports").Terms[0]
	var lastErr error
	for i := 0; i < 10; i++ {
		_, lastErr = e.Search("proxy", q, t0)
		if errors.Is(lastErr, ErrBlocked) {
			break
		}
	}
	if !errors.Is(lastErr, ErrBlocked) {
		t.Fatalf("source never banned: %v", lastErr)
	}
	if _, banned := e.blocked["proxy"]; !banned {
		t.Error("source not on the ban list after ban")
	}
	// Ban persists even after time passes.
	if _, err := e.Search("proxy", q, t0.Add(24*time.Hour)); !errors.Is(err, ErrBlocked) {
		t.Errorf("banned source err after a day = %v", err)
	}
}

func TestObservations(t *testing.T) {
	uni, e := testEngine(t)
	q1 := uni.Topic("travel").Terms[0]
	q2 := uni.Topic("cars").Terms[0]
	if _, err := e.Search("relay-1", q1, t0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search("relay-2", q2, t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	obs := e.Observations()
	if len(obs) != 2 {
		t.Fatalf("observations = %d", len(obs))
	}
	if obs[0].Source != "relay-1" || obs[0].Query != q1 {
		t.Errorf("obs[0] = %+v", obs[0])
	}
	if obs[1].Time != t0.Add(time.Minute) {
		t.Errorf("obs[1].Time = %v", obs[1].Time)
	}
}

func TestSplitOR(t *testing.T) {
	tests := []struct {
		in   string
		want int
	}{
		{"a", 1},
		{"a OR b", 2},
		{"a OR b OR c", 3},
		{"a OR  OR b", 2},
		{"", 1},
	}
	for _, tt := range tests {
		if got := splitOR(tt.in); len(got) != tt.want {
			t.Errorf("splitOR(%q) = %v", tt.in, got)
		}
	}
	// "OR" embedded in a word must not split.
	if got := splitOR("toORch"); len(got) != 1 {
		t.Errorf("splitOR(toORch) = %v", got)
	}
}

func TestResultsTopicality(t *testing.T) {
	uni, e := testEngine(t)
	// A strongly topical query should return mostly same-topic docs, visible
	// through the URL prefix.
	topic := uni.Topic("finance")
	q := topic.Terms[0] + " " + topic.Terms[2] + " " + topic.Terms[4]
	res, err := e.Search("s", q, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	sameTopic := 0
	for _, r := range res {
		if strings.Contains(r.URL, "/finance/") {
			sameTopic++
		}
	}
	if sameTopic < len(res)/2 {
		t.Errorf("only %d/%d results on-topic", sameTopic, len(res))
	}
}
