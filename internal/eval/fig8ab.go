package eval

import (
	"fmt"
	"strings"
	"time"

	"cyclosa/internal/baselines/tor"
	"cyclosa/internal/baselines/xsearch"
	"cyclosa/internal/core"
	"cyclosa/internal/enclave"
	"cyclosa/internal/queries"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/stats"
	"cyclosa/internal/transport"
	"cyclosa/internal/workload"
)

// LatencySeries is one CDF series of Fig 8a/8b.
type LatencySeries struct {
	Label     string
	Latencies []time.Duration
}

// Median returns the series median.
func (s *LatencySeries) Median() time.Duration { return stats.Percentile(s.Latencies, 50) }

// CDFPoints renders up to n CDF points in seconds.
func (s *LatencySeries) CDFPoints(n int) []stats.Point {
	return stats.NewCDF(stats.DurationsToSeconds(s.Latencies)).Points(n)
}

// LatencyResult reproduces Fig 8a: end-to-end latency CDFs for Direct,
// X-SEARCH, CYCLOSA and TOR at k = 3.
type LatencyResult struct {
	K       int
	Queries int
	Series  []LatencySeries
}

// LatencyOptions tunes the experiment.
type LatencyOptions struct {
	// Queries is the number of measured queries (paper: 200).
	Queries int
	// K is the obfuscation level (Fig 8a uses 3).
	K int
	// NetworkNodes sizes the CYCLOSA deployment (default 32).
	NetworkNodes int
}

// fixedK is a detector that always fires, forcing k = kmax: the latency
// figures use a fixed protection level.
type fixedK struct{}

func (fixedK) IsSensitive([]string) bool { return true }

// RunLatency measures end-to-end latency per mechanism over the simulated
// network paths (latencies are sampled from the calibrated link model and
// summed along each mechanism's message path, not slept).
func RunLatency(w *World, opts LatencyOptions) (*LatencyResult, error) {
	if opts.Queries == 0 {
		opts.Queries = 200
	}
	if opts.K == 0 {
		opts.K = 3
	}
	if opts.NetworkNodes == 0 {
		opts.NetworkNodes = 32
	}
	sample := w.TestSample(opts.Queries)
	now := time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)
	engine := w.FreshEngine(searchengine.Config{RateLimitPerHour: -1})

	// The paper measured Fig 8a on physical machines in one cluster: peers
	// are LAN-scale apart, the engine and TOR are remote.
	model := transport.TestbedModel(w.Cfg.Seed + 710)

	res := &LatencyResult{K: opts.K, Queries: len(sample)}

	// Direct: one engine round trip.
	direct := LatencySeries{Label: "Direct"}
	for range sample {
		direct.Latencies = append(direct.Latencies, model.Sample(transport.LinkEngineRTT))
	}
	res.Series = append(res.Series, direct)

	// X-SEARCH: client -> proxy -> engine and back.
	platform, err := enclave.NewPlatform("fig8a-xsearch", enclave.NewIAS())
	if err != nil {
		return nil, err
	}
	xp := xsearch.NewProxy(platform, engine, model, opts.K, w.Cfg.Seed+700)
	xp.Bootstrap(trainPool(w)[:min(1000, w.Train.Len())])
	xs := LatencySeries{Label: "X-SEARCH"}
	for _, q := range sample {
		_, lat, err := xp.Search(q.User, q.Text, now)
		if err != nil {
			return nil, fmt.Errorf("xsearch latency: %w", err)
		}
		xs.Latencies = append(xs.Latencies, lat)
	}
	res.Series = append(res.Series, xs)

	// CYCLOSA: full node pipeline at fixed k.
	cyc, err := cyclosaLatencies(w, engine, sample, opts.K, opts.NetworkNodes)
	if err != nil {
		return nil, err
	}
	res.Series = append(res.Series, LatencySeries{Label: "CYCLOSA", Latencies: cyc})

	// TOR: three-relay circuits.
	torNet, err := tor.NewNetwork(12, engine, model, w.Cfg.Seed+701)
	if err != nil {
		return nil, err
	}
	ts := LatencySeries{Label: "TOR"}
	for _, q := range sample {
		circuit := torNet.NewCircuit()
		_, lat, err := circuit.Search(q.Text, now)
		if err != nil {
			return nil, fmt.Errorf("tor latency: %w", err)
		}
		ts.Latencies = append(ts.Latencies, lat)
	}
	res.Series = append(res.Series, ts)

	return res, nil
}

// cyclosaLatencies runs the sample through a real core network at fixed k.
// The replay parallelizes across client nodes via the workload engine:
// client c drives node c with trace entries c, c+n, c+2n, ..., so an
// n-client run covers exactly the sample while the de-serialized network
// handles the concurrent forwards. The query-to-client assignment is
// deterministic, but the reported latencies are not reproducible
// bit-for-bit across identically-seeded runs: concurrent forwards
// interleave their draws from the network's shared latency-model RNG, so
// the per-query sums regroup differently per run. The figure's medians and
// CDF shape are statistically equivalent across runs, not identical — the
// price of parallel replay; restoring exact determinism would need
// per-request seeded latency sampling.
func cyclosaLatencies(w *World, engine *searchengine.Engine, sample []queries.Query, k, nodes int) ([]time.Duration, error) {
	net, err := core.NewNetwork(core.NetworkOptions{
		Nodes:   nodes,
		Seed:    w.Cfg.Seed + 702,
		Backend: engine,
		AnalyzerFor: func(string) *sensitivity.Analyzer {
			if k == 0 {
				return nil
			}
			return sensitivity.NewAnalyzer(fixedK{}, nil, k)
		},
		LatencyModel: transport.TestbedModel(w.Cfg.Seed + 702),
	})
	if err != nil {
		return nil, fmt.Errorf("cyclosa network: %w", err)
	}
	net.BootstrapFromTrending(w.Uni, 32, w.Cfg.Seed+703)

	now := time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)
	ids := net.NodeIDs()
	clients := len(ids)
	if clients > len(sample) {
		clients = len(sample)
	}
	texts := make([]string, len(sample))
	for i, q := range sample {
		texts[i] = q.Text
	}
	out := make([]time.Duration, len(sample))
	res, err := workload.Run(
		func(client, seq int, query string) error {
			sr, err := net.Node(ids[client]).Search(query, now)
			if err != nil {
				return err
			}
			out[seq] = sr.Latency
			return nil
		},
		workload.Options{
			Clients:   clients,
			Ops:       len(sample),
			Generator: workload.ReplayQueries(texts),
			FailFast:  true,
		})
	if err != nil {
		return nil, err
	}
	if res.FirstErr != nil {
		return nil, fmt.Errorf("cyclosa search: %w", res.FirstErr)
	}
	return out, nil
}

// String renders Fig 8a medians, CDF points and an ASCII rendition of the
// figure (CDF over log-scale seconds, like the paper's plot).
func (r *LatencyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8a: End-to-end latency, %d queries, k=%d\n", r.Queries, r.K)
	var series []stats.Series
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-10s median %s | CDF:", s.Label, stats.FormatDuration(s.Median()))
		for _, p := range s.CDFPoints(5) {
			fmt.Fprintf(&b, " (%.3fs, %.0f%%)", p.X, 100*p.Y)
		}
		b.WriteByte('\n')
		series = append(series, stats.Series{Label: s.Label, Points: s.CDFPoints(40)})
	}
	b.WriteString(stats.AsciiPlot(series, stats.PlotOptions{
		LogX: true, XLabel: "seconds", YLabel: "CDF",
	}))
	b.WriteString("(paper medians: Direct/X-SEARCH ≈ 0.577s, CYCLOSA 0.876s, TOR 62.28s)\n")
	return b.String()
}

// LatencyVsKResult reproduces Fig 8b: CYCLOSA's latency CDF for
// k ∈ {0, 1, 3, 5, 7}.
type LatencyVsKResult struct {
	Queries int
	Series  []LatencySeries
}

// RunLatencyVsK measures the impact of the protection level on latency.
func RunLatencyVsK(w *World, queriesPerK, networkNodes int) (*LatencyVsKResult, error) {
	if queriesPerK == 0 {
		queriesPerK = 200
	}
	if networkNodes == 0 {
		networkNodes = 32
	}
	engine := w.FreshEngine(searchengine.Config{RateLimitPerHour: -1})
	sample := w.TestSample(queriesPerK)
	res := &LatencyVsKResult{Queries: len(sample)}
	for _, k := range []int{0, 1, 3, 5, 7} {
		lats, err := cyclosaLatencies(w, engine, sample, k, networkNodes)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, LatencySeries{
			Label:     fmt.Sprintf("k=%d", k),
			Latencies: lats,
		})
	}
	return res, nil
}

// String renders Fig 8b.
func (r *LatencyVsKResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8b: Impact of k on CYCLOSA latency (%d queries per k)\n", r.Queries)
	for _, s := range r.Series {
		sum := stats.Summarize(stats.DurationsToSeconds(s.Latencies))
		fmt.Fprintf(&b, "%-5s median %.3fs  p99 %.3fs  max %.3fs\n", s.Label, sum.Median, sum.P99, sum.Max)
	}
	b.WriteString("(paper: k=7 median 1.226s, worst case < 1.5s)\n")
	return b.String()
}
