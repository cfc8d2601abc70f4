package eval

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/simnet"
	"cyclosa/internal/stats"
	"cyclosa/internal/transport"
	"cyclosa/internal/workload"
)

// ChurnPoint is one failure level of the availability experiment.
type ChurnPoint struct {
	// FailedFraction is the fraction of nodes killed.
	FailedFraction float64
	// Availability is the fraction of searches that completed.
	Availability float64
	// MedianLatency is the median latency of successful searches (failed
	// relay attempts charge the blacklisting timeout, so latency degrades
	// before availability does).
	MedianLatency time.Duration
	// Blacklisted counts relays blacklisted during the round.
	Blacklisted uint64
}

// ChurnResult extends the evaluation with the availability-under-churn
// curve of the decentralized design: CYCLOSA has no single point of failure
// (the X-SEARCH proxy is one), so searches keep completing as growing
// fractions of the overlay die, with graceful latency degradation from
// relay blacklisting.
type ChurnResult struct {
	Nodes  int
	K      int
	Points []ChurnPoint
}

// ChurnOptions tunes the experiment.
type ChurnOptions struct {
	// Nodes is the overlay size (default 40).
	Nodes int
	// K is the protection level (default 3).
	K int
	// FailedFractions are the failure levels (default 0, 0.1, 0.25, 0.5).
	FailedFractions []float64
	// SearchesPerPoint is the number of searches at each level (default 60).
	SearchesPerPoint int
	// Clients is the number of concurrent workload clients driving each
	// level (default 8, capped at the survivor count).
	Clients int
}

// RunChurn measures availability and latency at increasing failure levels.
// Each level uses a fresh deployment (identical seed) behind a simnet
// conduit, crashes the chosen fraction at the transport layer, and then
// drives searches from surviving nodes through the concurrent workload
// engine. Unlike an overlay oracle (core.Kill plus healing gossip), the
// simnet crash leaves dead descriptors circulating: survivors discover the
// failures the way the paper's clients do — by timing out, blacklisting
// (§VI-b) and retrying over replacement relays.
func RunChurn(w *World, opts ChurnOptions) (*ChurnResult, error) {
	if opts.Nodes == 0 {
		opts.Nodes = 40
	}
	if opts.K == 0 {
		opts.K = 3
	}
	if len(opts.FailedFractions) == 0 {
		opts.FailedFractions = []float64{0, 0.1, 0.25, 0.5}
	}
	if opts.SearchesPerPoint == 0 {
		opts.SearchesPerPoint = 60
	}
	if opts.Clients == 0 {
		opts.Clients = 8
	}
	engine := w.FreshEngine(searchengine.Config{RateLimitPerHour: -1})
	now := time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)

	res := &ChurnResult{Nodes: opts.Nodes, K: opts.K}
	for _, frac := range opts.FailedFractions {
		sim := simnet.New(simnet.Config{Seed: w.Cfg.Seed + 1200})
		net, err := core.NewNetwork(core.NetworkOptions{
			Nodes:   opts.Nodes,
			Seed:    w.Cfg.Seed + 1200,
			Backend: engine,
			AnalyzerFor: func(string) *sensitivity.Analyzer {
				return sensitivity.NewAnalyzer(fixedK{}, nil, opts.K)
			},
			LatencyModel: transport.TestbedModel(w.Cfg.Seed + 1200),
			Conduit:      sim.Wrap,
		})
		if err != nil {
			return nil, fmt.Errorf("churn network: %w", err)
		}
		net.BootstrapFromTrending(w.Uni, 16, w.Cfg.Seed+1201)
		ids := net.NodeIDs()

		failed := int(frac * float64(opts.Nodes))
		for _, id := range ids[opts.Nodes-failed:] {
			sim.Crash(id)
		}
		survivors := ids[:opts.Nodes-failed]
		clients := opts.Clients
		if clients > len(survivors) {
			clients = len(survivors)
		}

		sample := w.TestSample(opts.SearchesPerPoint)
		texts := make([]string, len(sample))
		for i, q := range sample {
			texts[i] = q.Text
		}

		var latMu sync.Mutex
		var latencies []time.Duration
		run, err := workload.Run(
			func(client, _ int, query string) error {
				node := net.Node(survivors[client%len(survivors)])
				sr, serr := node.Search(query, now)
				if serr != nil {
					return serr
				}
				latMu.Lock()
				latencies = append(latencies, sr.Latency)
				latMu.Unlock()
				return nil
			},
			workload.Options{
				Clients:   clients,
				Ops:       len(texts),
				Generator: workload.ReplayQueries(texts),
			})
		if err != nil {
			return nil, fmt.Errorf("churn workload: %w", err)
		}

		var blacklisted uint64
		for _, id := range survivors {
			blacklisted += net.Node(id).Stats().Blacklisted
		}
		res.Points = append(res.Points, ChurnPoint{
			FailedFraction: frac,
			Availability:   float64(run.Ops) / float64(run.Ops+run.Errors),
			MedianLatency:  stats.Percentile(latencies, 50),
			Blacklisted:    blacklisted,
		})
	}
	return res, nil
}

// String renders the churn curve.
func (r *ChurnResult) String() string {
	var b strings.Builder
	tbl := &stats.Table{
		Title:  fmt.Sprintf("Extension: availability under churn (%d nodes, k=%d)", r.Nodes, r.K),
		Header: []string{"Failed", "Availability", "Median latency", "Blacklisted"},
	}
	for _, p := range r.Points {
		tbl.AddRow(
			fmt.Sprintf("%.0f%%", 100*p.FailedFraction),
			fmt.Sprintf("%.1f%%", 100*p.Availability),
			stats.FormatDuration(p.MedianLatency),
			fmt.Sprintf("%d", p.Blacklisted),
		)
	}
	b.WriteString(tbl.String())
	b.WriteString("(no single point of failure: availability degrades gracefully, unlike a central proxy)\n")
	return b.String()
}
