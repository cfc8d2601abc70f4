package eval

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/core"
	"cyclosa/internal/enclave"
	"cyclosa/internal/nettrans"
	"cyclosa/internal/rps"
)

// AccountingBenchOptions configures the admission-control benchmark behind
// cyclosa-bench's -exp accounting: closed-loop clients forward to one hosted
// relay well past their per-client rate, measuring what the token-bucket
// edge in front of its data frames admits and what it sheds. Tracked PR over
// PR in BENCH_accounting.json.
type AccountingBenchOptions struct {
	// Seed drives platform and network randomness.
	Seed int64
	// ClientQPS / Burst configure the per-client token bucket
	// (defaults 50 qps, burst 10).
	ClientQPS float64
	Burst     int
	// Clients is the number of concurrent closed-loop clients, each with
	// its own identity and therefore its own bucket (default 4).
	Clients int
	// Duration is the measured shedding window (default 250ms). Closed
	// loops run far faster than any sane per-client rate, so the offered
	// load is guaranteed to exceed it.
	Duration time.Duration
}

// AccountingBenchResult is one measurement of the admission edge.
type AccountingBenchResult struct {
	// Benchmark names the measured subsystem.
	Benchmark string `json:"benchmark"`
	// ClientQPS, Burst and Clients echo the configuration.
	ClientQPS float64 `json:"client_qps"`
	Burst     int     `json:"burst"`
	Clients   int     `json:"clients"`
	// DurationMs is the measured window.
	DurationMs float64 `json:"duration_ms"`
	// Offered / Admitted / Throttled count the window's queries as the
	// clients saw them: everything issued, answered normally, or refused
	// with the typed throttle error.
	Offered   uint64 `json:"offered"`
	Admitted  uint64 `json:"admitted"`
	Throttled uint64 `json:"throttled"`
	// OfferedPerClientPerSec is the realized per-client offered rate —
	// the acceptance bar is >= 2x ClientQPS.
	OfferedPerClientPerSec float64 `json:"offered_per_client_per_sec"`
	// AdmittedPerSec is the aggregate rate the edge let through.
	AdmittedPerSec float64 `json:"admitted_per_sec"`
	// LimiterAdmitted / LimiterThrottled are the server-side limiter
	// counters, which must agree with the client-observed split.
	LimiterAdmitted  uint64 `json:"limiter_admitted"`
	LimiterThrottled uint64 `json:"limiter_throttled"`
	Stamp
}

// AccountingBenchHistoryEntry is one prior BENCH_accounting measurement,
// carried forward so the file tracks the admission edge across runs.
type AccountingBenchHistoryEntry struct {
	GeneratedAt    string  `json:"generated_at"`
	Admitted       uint64  `json:"admitted"`
	Throttled      uint64  `json:"throttled"`
	AdmittedPerSec float64 `json:"admitted_per_sec"`
}

// RunAccountingBench measures the admission edge end to end: Clients
// closed-loop clients — hosted nodes, each with its own identity, pool and
// attested pair — forward to one throttled hosted relay for Duration; every
// forward either completes or fails with the typed core.ErrRelayThrottled.
func RunAccountingBench(opts AccountingBenchOptions) (*AccountingBenchResult, error) {
	if opts.ClientQPS <= 0 {
		opts.ClientQPS = 50
	}
	if opts.Burst <= 0 {
		opts.Burst = 10
	}
	if opts.Clients <= 0 {
		opts.Clients = 4
	}
	if opts.Duration <= 0 {
		opts.Duration = 250 * time.Millisecond
	}

	const relayID = "accounting-bench"
	ias := enclave.NewIAS()
	verifier := enclave.NewVerifier(ias, enclave.MeasureCode(core.EnclaveName, core.EnclaveVersion))
	// host builds one hosted node whose only peer is the relay; resolve is
	// filled in once the relay's server is bound.
	var relayAddr string
	resolve := func(string) (string, bool) { return relayAddr, true }
	host := func(id string) (*core.Node, *nettrans.TCPConduit, error) {
		link := nettrans.NewTCPConduit(nettrans.ConduitConfig{
			Resolve:    resolve,
			PoolConfig: nettrans.PoolConfig{ID: id, RequestTimeout: 30 * time.Second},
		})
		node, err := core.NewHostedNode(core.NodeOptions{ID: id, Seed: opts.Seed},
			enclave.NewDeterministicPlatform("accounting-bench-"+id, []byte("accountingbench"), ias), verifier,
			rps.NewNode(rps.NodeID(id), []rps.NodeID{relayID}, rps.Config{Seed: opts.Seed}), core.NullBackend{}, link)
		return node, link, err
	}

	lim, err := accounting.NewLimiter(accounting.LimiterConfig{QPS: opts.ClientQPS, Burst: opts.Burst})
	if err != nil {
		return nil, err
	}
	relay, relayLink, err := host(relayID)
	if err != nil {
		return nil, err
	}
	defer relayLink.Close()
	srv := nettrans.NewServer(nettrans.ServerConfig{ID: relayID, Handler: relay.Local(), Admission: lim})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer srv.Close()
	relayAddr = srv.Addr().String()

	clients := make([]*core.Node, opts.Clients)
	for i := range clients {
		c, link, err := host(fmt.Sprintf("bench-client-%d", i))
		if err != nil {
			return nil, err
		}
		defer link.Close()
		clients[i] = c
		// One warmup forward per client so attestation and scratch growth
		// are not charged to the window (it also spends one token).
		if _, err := c.Search("accounting warmup", time.Now()); err != nil {
			return nil, fmt.Errorf("client %d warmup: %w", i, err)
		}
	}

	var admitted, throttled uint64
	var mu sync.Mutex
	var wg sync.WaitGroup
	errCh := make(chan error, opts.Clients)
	start := time.Now()
	deadline := start.Add(opts.Duration)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *core.Node) {
			defer wg.Done()
			var adm, thr uint64
			for time.Now().Before(deadline) {
				// No analyzer and a one-peer view: a search is one forward.
				_, err := c.Search("accounting probe", time.Now())
				switch {
				case err == nil:
					adm++
				case errors.Is(err, core.ErrRelayThrottled):
					thr++
				default:
					errCh <- fmt.Errorf("client %d: %w", i, err)
					return
				}
			}
			mu.Lock()
			admitted += adm
			throttled += thr
			mu.Unlock()
		}(i, c)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	st := lim.Stats()
	offered := admitted + throttled
	return &AccountingBenchResult{
		Benchmark:              "Per-client admission edge (token bucket in front of a hosted relay's data frames)",
		ClientQPS:              opts.ClientQPS,
		Burst:                  opts.Burst,
		Clients:                opts.Clients,
		DurationMs:             float64(elapsed.Nanoseconds()) / 1e6,
		Offered:                offered,
		Admitted:               admitted,
		Throttled:              throttled,
		OfferedPerClientPerSec: float64(offered) / elapsed.Seconds() / float64(opts.Clients),
		AdmittedPerSec:         float64(admitted) / elapsed.Seconds(),
		LimiterAdmitted:        st.Admitted,
		LimiterThrottled:       st.Throttled,
	}, nil
}

// Violations lists where the run missed its acceptance bar (non-zero exit
// for cyclosa-bench): the offered load must exceed twice the per-client rate,
// and some of it must actually have been shed with the typed error.
func (r *AccountingBenchResult) Violations() []string {
	var bad []string
	if r.Throttled == 0 {
		bad = append(bad, "nothing was throttled: the admission edge never shed")
	}
	if r.OfferedPerClientPerSec < 2*r.ClientQPS {
		bad = append(bad, fmt.Sprintf("offered %.0f per client per sec, below twice the %.0f qps quota: the closed loop never overloaded the edge",
			r.OfferedPerClientPerSec, r.ClientQPS))
	}
	return bad
}

// Summary is the history entry this run leaves behind.
func (r *AccountingBenchResult) Summary() any {
	return AccountingBenchHistoryEntry{
		GeneratedAt:    r.GeneratedAt,
		Admitted:       r.Admitted,
		Throttled:      r.Throttled,
		AdmittedPerSec: r.AdmittedPerSec,
	}
}

// String renders the result for the terminal.
func (r *AccountingBenchResult) String() string {
	s := fmt.Sprintf(
		"Admission edge (%s):\n  %d clients at %.0f qps / burst %d each, %.0fms window\n  offered %d (%.0f per client per sec) -> admitted %d (%.0f/s), throttled %d\n  limiter counters: %d admitted, %d throttled",
		r.Benchmark, r.Clients, r.ClientQPS, r.Burst, r.DurationMs,
		r.Offered, r.OfferedPerClientPerSec, r.Admitted, r.AdmittedPerSec, r.Throttled,
		r.LimiterAdmitted, r.LimiterThrottled)
	for _, v := range r.Violations() {
		s += "\n  FAIL " + v
	}
	return s
}
