package eval

import (
	"bytes"
	"testing"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/sensitivity"
)

// alwaysSensitive flags every query, so every search sends kmax fakes.
type alwaysSensitive struct{}

func (alwaysSensitive) IsSensitive([]string) bool { return true }

// TestAccuracyCyclosaExact is what lets RunAccuracy score CYCLOSA with the
// direct page: the real query travels alone, through one relay, so the page
// the user gets back is the engine's own, unmixed with the k fakes' pages
// (§I, Fig 6). Here the Fig 6 engine answers behind a full core network and
// every real page must encode byte-identically to the direct one.
func TestAccuracyCyclosaExact(t *testing.T) {
	w := getWorld(t)
	engine := w.FreshEngine(searchengine.Config{RateLimitPerHour: -1})
	const kmax = 3
	net, err := core.NewNetwork(core.NetworkOptions{
		Nodes:   12,
		Seed:    w.Cfg.Seed,
		Backend: engine,
		AnalyzerFor: func(string) *sensitivity.Analyzer {
			return sensitivity.NewAnalyzer(alwaysSensitive{}, nil, kmax)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.BootstrapFromTrending(w.Uni, 50, w.Cfg.Seed)
	ids := net.NodeIDs()
	now := time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)

	sample := w.TestSample(300)
	fakes, pages := 0, 0
	for i, q := range sample {
		res, err := net.Node(ids[i%len(ids)]).Search(q.Text, now)
		if err != nil {
			t.Fatalf("search %d %q: %v", i, q.Text, err)
		}
		if res.EngineError != nil {
			t.Fatalf("search %d %q: engine refused: %v", i, q.Text, res.EngineError)
		}
		fakes += res.K
		if len(res.Results) > 0 {
			pages++
		}
		got := searchengine.AppendResults(nil, res.Results)
		want := searchengine.AppendResults(nil, engine.DirectResults(q.Text))
		if !bytes.Equal(got, want) {
			t.Fatalf("search %d %q: the page through CYCLOSA (%d results) differs from the direct page (%d results)",
				i, q.Text, len(res.Results), len(engine.DirectResults(q.Text)))
		}
	}
	if pages < len(sample)/2 {
		t.Fatalf("only %d of %d searches returned a non-empty page", pages, len(sample))
	}
	if fakes != kmax*len(sample) {
		t.Fatalf("%d fakes over %d searches, want k = %d on every one", fakes, len(sample), kmax)
	}
}
