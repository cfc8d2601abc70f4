package xsearch

import (
	"strings"
	"testing"
	"time"

	"cyclosa/internal/enclave"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/transport"
)

// recordingBackend captures engine calls and serves a canned page.
type recordingBackend struct {
	sources []string
	queries []string
	page    []searchengine.Result
}

func (b *recordingBackend) Search(source, query string, _ time.Time) ([]searchengine.Result, error) {
	b.sources = append(b.sources, source)
	b.queries = append(b.queries, query)
	return b.page, nil
}

func newTestProxy(t *testing.T, backend Backend, k int) *Proxy {
	t.Helper()
	platform, err := enclave.NewPlatform("xsearch-test", enclave.NewIAS())
	if err != nil {
		t.Fatalf("platform: %v", err)
	}
	return NewProxy(platform, backend, transport.NewModel(1, nil, 0), k, 23)
}

func TestObfuscateGroupShape(t *testing.T) {
	tests := []struct {
		name      string
		k         int
		bootstrap []string
		wantN     int
	}{
		{"default k", 0, []string{"pq one", "pq two", "pq three"}, 4},
		{"k=1", 1, []string{"pq one"}, 2},
		{"k=3", 3, []string{"pq one", "pq two", "pq three"}, 4},
		{"empty table degenerates to real copies", 3, nil, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := newTestProxy(t, &recordingBackend{}, tt.k)
			p.Bootstrap(tt.bootstrap)
			before := p.TableLen()

			obfuscated, disjuncts, realIdx := p.Obfuscate("the real query")
			if len(disjuncts) != tt.wantN {
				t.Fatalf("got %d disjuncts, want %d (k+1)", len(disjuncts), tt.wantN)
			}
			if disjuncts[realIdx] != "the real query" {
				t.Fatalf("disjunct at real index = %q, want the real query", disjuncts[realIdx])
			}
			if want := strings.Join(disjuncts, searchengine.ORSeparator); obfuscated != want {
				t.Fatalf("obfuscated = %q, want joined disjuncts", obfuscated)
			}
			// Fakes come from the past-query table (X-SEARCH's key idea).
			pool := make(map[string]struct{}, len(tt.bootstrap))
			for _, q := range tt.bootstrap {
				pool[q] = struct{}{}
			}
			pool["the real query"] = struct{}{} // degenerate fallback
			for i, d := range disjuncts {
				if _, ok := pool[d]; !ok {
					t.Fatalf("disjunct %d = %q is neither a past query nor the real one", i, d)
				}
			}
			if got := p.TableLen(); got != before+1 {
				t.Fatalf("table grew %d -> %d, want +1 (query recorded)", before, got)
			}
		})
	}
}

func TestSearchUsesProxyIdentityAndFilters(t *testing.T) {
	backend := &recordingBackend{page: []searchengine.Result{
		{DocID: 1, Terms: []string{"matching"}},
		{DocID: 2, Terms: []string{"unrelated"}},
	}}
	p := newTestProxy(t, backend, 3)
	p.Bootstrap([]string{"past one", "past two", "past three"})

	results, latency, err := p.Search("frank", "matching stuff", time.Unix(0, 0))
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if len(backend.sources) != 1 || backend.sources[0] != ProxySource {
		t.Fatalf("engine saw sources %v, want exactly [%s]: all X-SEARCH traffic shares the proxy identity", backend.sources, ProxySource)
	}
	if len(results) != 1 || results[0].DocID != 1 {
		t.Fatalf("filtered results = %+v, want only DocID 1", results)
	}
	if latency < 0 {
		t.Fatalf("latency = %v, want >= 0", latency)
	}
}
