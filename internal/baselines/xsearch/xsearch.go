// Package xsearch implements the X-SEARCH baseline (Ben Mokhtar et al.,
// Middleware 2017), the paper's closest competitor: a centralized proxy
// running in an SGX enclave receives the user's query over a secure channel,
// obfuscates it by OR-ing it with k past queries of other users, submits the
// group to the engine under the proxy's identity, filters the merged page
// proxy-side and returns the filtered results.
//
// Differences from CYCLOSA that the evaluation measures: the OR group makes
// accuracy imperfect (Fig 6) and leaks the group structure to the adversary
// (Fig 5: pick the real disjunct, then identify); the single proxy identity
// concentrates all traffic onto one engine source (Fig 8d).
package xsearch

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/enclave"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/textproc"
	"cyclosa/internal/transport"
)

// ProxySource is the engine-visible identity of the X-SEARCH proxy.
const ProxySource = "xsearch-proxy"

// Backend is the search engine.
type Backend interface {
	Search(source, query string, now time.Time) ([]searchengine.Result, error)
}

// Proxy is the enclave-hosted X-SEARCH proxy.
type Proxy struct {
	encl    *enclave.Enclave
	backend Backend
	table   *core.PastQueryTable
	model   *transport.Model
	k       int

	mu  sync.Mutex
	rng *rand.Rand
}

// NewProxy creates the proxy on the given SGX platform. k <= 0 defaults
// to 3 fakes per query.
func NewProxy(platform *enclave.Platform, backend Backend, model *transport.Model, k int, seed int64) *Proxy {
	if k <= 0 {
		k = 3
	}
	encl := platform.New(enclave.Config{Name: "xsearch-proxy", Version: 1})
	return &Proxy{
		encl:    encl,
		backend: backend,
		table:   core.NewPastQueryTable(0, encl.EPC()),
		model:   model,
		k:       k,
		rng:     rand.New(rand.NewSource(seed)),
	}
}

// Enclave exposes the proxy enclave (for attestation in deployments and for
// its EPC accounting).
func (p *Proxy) Enclave() *enclave.Enclave { return p.encl }

// Bootstrap seeds the past-query table.
func (p *Proxy) Bootstrap(queries []string) { p.table.AddAll(queries) }

// TableLen returns the past-query table size.
func (p *Proxy) TableLen() int { return p.table.Len() }

// Obfuscate records the query and builds the OR group from past queries; it
// returns the group, the disjunct list and the real index (ground truth for
// the evaluation).
func (p *Proxy) Obfuscate(query string) (obfuscated string, disjuncts []string, realIdx int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	disjuncts = make([]string, 0, p.k+1)
	realIdx = p.rng.Intn(p.k + 1)
	fakes := p.table.Sample(p.rng, p.k)
	fi := 0
	for i := 0; i <= p.k; i++ {
		if i == realIdx {
			disjuncts = append(disjuncts, query)
			continue
		}
		if fi < len(fakes) && fakes[fi] != "" {
			disjuncts = append(disjuncts, fakes[fi])
		} else {
			disjuncts = append(disjuncts, query)
		}
		fi++
	}
	p.table.Add(query)
	return strings.Join(disjuncts, searchengine.ORSeparator), disjuncts, realIdx
}

// Search handles one user query end to end: obfuscate in the enclave, query
// the engine as the proxy, filter proxy-side, return the filtered page.
// Latency is client→proxy WAN, enclave processing, engine RTT, WAN back.
func (p *Proxy) Search(user, query string, now time.Time) ([]searchengine.Result, time.Duration, error) {
	_ = user // the proxy sees the user but the engine sees only the proxy
	obfuscated, _, _ := p.Obfuscate(query)
	latency := p.model.Sample(transport.LinkWAN) +
		p.model.ProcessingCost() +
		p.model.Sample(transport.LinkEngineRTT) +
		p.model.ProcessingCost() +
		p.model.Sample(transport.LinkWAN)
	merged, err := p.backend.Search(ProxySource, obfuscated, now)
	if err != nil {
		return nil, latency, fmt.Errorf("xsearch proxy: %w", err)
	}
	return searchengine.FilterByTerms(merged, textproc.Tokenize(query)), latency, nil
}
