package eval

import (
	"fmt"
	"sync"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/nettrans"
	"cyclosa/internal/rps"
	"cyclosa/internal/stats"
	"cyclosa/internal/transport"
)

// NetBenchOptions configures the network-transport benchmark behind
// cyclosa-bench's -exp net: the forward round trip measured side by side
// in process (direct) and over loopback TCP (serial, and multiplexed on one
// group-committed connection), so the data plane's cost is tracked PR over
// PR in BENCH_net.json.
type NetBenchOptions struct {
	// Seed drives network randomness.
	Seed int64
	// Iterations is the measured round-trip count per variant (default 20000).
	Iterations int
	// Warmup iterations establish sessions, connections and scratch buffers
	// before measurement (default 500). Reported per variant so BENCH_net
	// deltas are known to reflect steady state only.
	Warmup int
	// Concurrency is the client count of the multiplexed variant (default
	// 4): that many clients forward through one relay over one shared TCP
	// connection, measuring stream multiplexing rather than serial RTT.
	Concurrency int
}

func (o *NetBenchOptions) applyDefaults() {
	if o.Iterations <= 0 {
		o.Iterations = 20000
	}
	if o.Warmup <= 0 {
		o.Warmup = 500
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 4
	}
}

// NetBenchVariant is one transport variant's measurement.
type NetBenchVariant struct {
	// Name identifies the variant: "direct" or "tcp+coalesce".
	Name string `json:"name"`
	// Concurrency is the closed-loop client count of this variant.
	Concurrency int `json:"concurrency"`
	// NsPerOp is wall-clock time per completed op (aggregate: elapsed divided
	// by total ops, so for concurrent variants it reflects throughput, not
	// latency — see the percentiles for latency).
	NsPerOp float64 `json:"ns_per_op"`
	// OpsPerSec is the aggregate closed-loop throughput.
	OpsPerSec float64 `json:"ops_per_sec"`
	// P50NsPerOp / P95NsPerOp are per-op latency percentiles over the
	// measured iterations.
	P50NsPerOp float64 `json:"p50_ns_per_op"`
	P95NsPerOp float64 `json:"p95_ns_per_op"`
	// ColdStartNs is the first exchange on the cold stack — dial, hello and
	// the first attested session — reported separately so it is never
	// charged to a measured op.
	ColdStartNs float64 `json:"cold_start_ns,omitempty"`
	// WarmupOps is how many unmeasured ops preceded measurement.
	WarmupOps int `json:"warmup_ops"`
	// FramesPerFlush is the write-combining contention proxy (client side):
	// 1.0 means every frame paid its own flush; higher means concurrent
	// writers shared syscalls. Zero when the variant has no frame stats.
	FramesPerFlush float64 `json:"frames_per_flush,omitempty"`
}

// NetBenchHistoryEntry is one prior BENCH_net measurement, carried forward
// so the throughput trajectory is visible across PRs.
type NetBenchHistoryEntry struct {
	GeneratedAt            string  `json:"generated_at"`
	TCPConcurrentOpsPerSec float64 `json:"tcp_concurrent_ops_per_sec"`
	TCPNsPerOp             float64 `json:"tcp_ns_per_op,omitempty"`
}

// NetBenchResult is one comparative measurement of the forward path. The
// top-level summary fields mirror v1 (CI's regression gate and external
// tooling key on tcp_concurrent_ops_per_sec); the variants array is the v2
// side-by-side detail.
type NetBenchResult struct {
	// Benchmark names the measured path.
	Benchmark string `json:"benchmark"`
	// Iterations is the per-variant measured round-trip count.
	Iterations int `json:"iterations"`
	// DirectNsPerOp is the in-process (direct conduit) round-trip time.
	DirectNsPerOp float64 `json:"direct_ns_per_op"`
	// TCPNsPerOp is the serial loopback-TCP round-trip time (single client,
	// closed loop — a lone writer flushes immediately).
	TCPNsPerOp float64 `json:"tcp_ns_per_op"`
	// TCPOpsPerSec is the single-client closed-loop TCP throughput.
	TCPOpsPerSec float64 `json:"tcp_ops_per_sec"`
	// OverheadNsPerOp is TCPNsPerOp - DirectNsPerOp.
	OverheadNsPerOp float64 `json:"overhead_ns_per_op"`
	// Concurrency is the multiplexed variant's client count.
	Concurrency int `json:"concurrency"`
	// TCPConcurrentOpsPerSec is the aggregate throughput of the
	// "tcp+coalesce" variant (the default production transport) — the field
	// the CI regression gate compares.
	TCPConcurrentOpsPerSec float64 `json:"tcp_concurrent_ops_per_sec"`
	// Variants holds the side-by-side measurements.
	Variants []NetBenchVariant `json:"variants"`
	// GeneratedAt stamps the measurement (RFC 3339).
	GeneratedAt string `json:"generated_at"`
	// History carries prior measurements forward, newest first.
	History []NetBenchHistoryEntry `json:"history,omitempty"`
}

// RunNetBench measures the forward round trip over the comparative
// transport variants.
func RunNetBench(opts NetBenchOptions) (*NetBenchResult, error) {
	opts.applyDefaults()
	const query = "net bench probe"

	res := &NetBenchResult{
		Benchmark:   "ForwardRoundTrip direct vs loopback TCP variants (NullBackend)",
		Iterations:  opts.Iterations,
		Concurrency: opts.Concurrency,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}

	// Variant 1: in-process direct conduit, serial (the floor).
	direct, err := measureSerial(core.NetworkOptions{
		Nodes:   2,
		Seed:    opts.Seed,
		Backend: core.NullBackend{},
	}, nil, query, opts.Warmup, opts.Iterations)
	if err != nil {
		return nil, fmt.Errorf("direct phase: %w", err)
	}
	direct.Name = "direct"
	res.Variants = append(res.Variants, direct)
	res.DirectNsPerOp = direct.NsPerOp

	// Serial loopback TCP: the RTT figure tcp_ns_per_op tracks (a summary
	// field, not a named variant).
	serialTCP, err := measureSerialTCP(opts, query)
	if err != nil {
		return nil, fmt.Errorf("tcp serial phase: %w", err)
	}
	res.TCPNsPerOp = serialTCP.NsPerOp
	res.TCPOpsPerSec = serialTCP.OpsPerSec
	res.OverheadNsPerOp = serialTCP.NsPerOp - direct.NsPerOp

	// Variant 2: Concurrency clients multiplexing over the shared pool.
	coalesce, err := measureConcurrent(opts, query)
	if err != nil {
		return nil, fmt.Errorf("tcp+coalesce phase: %w", err)
	}
	coalesce.Name = "tcp+coalesce"
	res.Variants = append(res.Variants, coalesce)
	res.TCPConcurrentOpsPerSec = coalesce.OpsPerSec
	return res, nil
}

// tcpStack is the loopback data plane of one benchmark phase: a
// gossip-serving relay host and a client whose resolver learned the relay
// through the real join flow (bootstrap exchange into the membership
// directory), not a static peer list.
type tcpStack struct {
	server    *nettrans.Server
	serverMem *nettrans.Membership
	clientMem *nettrans.Membership
	tcp       *nettrans.TCPConduit
}

func (s *tcpStack) close() {
	if s.tcp != nil {
		s.tcp.Close()
	}
	if s.clientMem != nil {
		s.clientMem.Stop()
	}
	if s.serverMem != nil {
		s.serverMem.Stop()
	}
	if s.server != nil {
		s.server.Close()
	}
}

// newTCPStack starts a loopback relay server (data plane over the direct
// conduit, gossip plane under the relay's overlay identity) and a client
// membership that joins it via -bootstrap semantics; the conduit resolves
// relays through the resulting attestation directory.
func newTCPStack(direct transport.Conduit, relayID string) (*tcpStack, error) {
	serverMem := nettrans.NewMembership(nettrans.MembershipConfig{
		Self:       rps.Descriptor{ID: rps.NodeID(relayID)},
		PoolConfig: nettrans.PoolConfig{ID: relayID},
	})
	srv := nettrans.NewServer(nettrans.ServerConfig{
		ID:         "bench-relay-host",
		Handler:    direct,
		Membership: serverMem,
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		serverMem.Stop()
		return nil, err
	}
	addr := srv.Addr().String()
	serverMem.SetAdvertise(addr)

	// The client joins the way a daemon does: one bootstrap exchange with
	// the seed populates its view and directory; Resolve then serves the
	// data plane. No Attest func — the bench measures transport, and the
	// conduit's forwards run the full attested securechan exchange anyway.
	clientMem := nettrans.NewMembership(nettrans.MembershipConfig{
		Self:       rps.Descriptor{ID: "bench-client"},
		Bootstrap:  []string{addr},
		PoolConfig: nettrans.PoolConfig{ID: "bench-client"},
	})
	if err := clientMem.Bootstrap(); err != nil {
		clientMem.Stop()
		serverMem.Stop()
		srv.Close()
		return nil, fmt.Errorf("join via bootstrap seed: %w", err)
	}
	if _, ok := clientMem.Resolve(relayID); !ok {
		clientMem.Stop()
		serverMem.Stop()
		srv.Close()
		return nil, fmt.Errorf("bootstrap exchange did not yield relay %s in the directory", relayID)
	}
	tcp := nettrans.NewTCPConduit(nettrans.ConduitConfig{
		Resolve: clientMem.Resolve,
		PoolConfig: nettrans.PoolConfig{
			ID:             "bench-pool",
			RequestTimeout: 30 * time.Second,
		},
	})
	return &tcpStack{server: srv, serverMem: serverMem, clientMem: clientMem, tcp: tcp}, nil
}

// withTCPStack returns a NetworkOptions.Conduit hook that builds the
// loopback TCP stack over the network's direct conduit (relayID is the
// overlay node the gossip plane advertises), plus the matching teardown and
// an error probe. NewNetwork's hook has no error path, so a failed listen
// or join is parked in the probe — callers MUST check it, or a bench phase
// would silently measure the in-process path and label it TCP.
func withTCPStack(relayID string) (hook func(transport.Conduit) transport.Conduit, stack func() *tcpStack, cleanup func(), hookErr func() error) {
	var s *tcpStack
	var err error
	hook = func(direct transport.Conduit) transport.Conduit {
		var st *tcpStack
		st, err = newTCPStack(direct, relayID)
		if err != nil {
			return direct
		}
		s = st
		return st.tcp
	}
	stack = func() *tcpStack { return s }
	cleanup = func() {
		if s != nil {
			s.close()
		}
	}
	hookErr = func() error { return err }
	return hook, stack, cleanup, hookErr
}

// measureSerial times iterations closed-loop round trips on a fresh
// network; hook (when non-nil) installs the transport under test. The first
// exchange is timed separately (cold start) and warmup ops run unmeasured,
// so NsPerOp reflects steady state only.
func measureSerial(netOpts core.NetworkOptions, hook func(transport.Conduit) transport.Conduit, query string, warmup, iterations int) (NetBenchVariant, error) {
	netOpts.Conduit = hook
	net, err := core.NewNetwork(netOpts)
	if err != nil {
		return NetBenchVariant{}, err
	}
	ids := net.NodeIDs()
	client, relay := net.Node(ids[0]), ids[1]
	now := time.Unix(0, 0)

	coldStart := time.Now()
	if err := net.RelayRoundTrip(client, relay, query, now); err != nil {
		return NetBenchVariant{}, fmt.Errorf("cold start: %w", err)
	}
	coldNs := float64(time.Since(coldStart).Nanoseconds())

	for i := 1; i < warmup; i++ {
		if err := net.RelayRoundTrip(client, relay, query, now); err != nil {
			return NetBenchVariant{}, fmt.Errorf("warmup: %w", err)
		}
	}

	// One timestamp per op: in a closed loop the gap between consecutive
	// completions is exactly the op's duration, at half the clock cost.
	lat := make([]float64, iterations)
	start := time.Now()
	last := start
	for i := 0; i < iterations; i++ {
		if err := net.RelayRoundTrip(client, relay, query, now); err != nil {
			return NetBenchVariant{}, fmt.Errorf("iteration %d: %w", i, err)
		}
		end := time.Now()
		lat[i] = float64(end.Sub(last).Nanoseconds())
		last = end
	}
	elapsed := time.Since(start)
	nsPerOp := float64(elapsed.Nanoseconds()) / float64(iterations)
	return NetBenchVariant{
		Concurrency: 1,
		NsPerOp:     nsPerOp,
		OpsPerSec:   1e9 / nsPerOp,
		P50NsPerOp:  stats.Percentile(lat, 50),
		P95NsPerOp:  stats.Percentile(lat, 95),
		ColdStartNs: coldNs,
		WarmupOps:   warmup,
	}, nil
}

// measureSerialTCP runs the serial loopback-TCP measurement.
func measureSerialTCP(opts NetBenchOptions, query string) (NetBenchVariant, error) {
	hook, _, cleanup, hookErr := withTCPStack(string(rps.Name(1)))
	defer cleanup()
	v, err := measureSerial(core.NetworkOptions{
		Nodes:   2,
		Seed:    opts.Seed,
		Backend: core.NullBackend{},
	}, hook, query, opts.Warmup, opts.Iterations)
	if err == nil {
		err = hookErr()
	}
	return v, err
}

// measureConcurrent times opts.Concurrency clients multiplexing forwards to
// one relay over the shared TCP pool.
func measureConcurrent(opts NetBenchOptions, query string) (NetBenchVariant, error) {
	// The relay is the highest-numbered node (ids are sorted); its identity
	// is known before the network exists because overlay names are
	// deterministic.
	hook, stack, cleanup, hookErr := withTCPStack(string(rps.Name(opts.Concurrency)))
	defer cleanup()
	net, err := core.NewNetwork(core.NetworkOptions{
		Nodes:   opts.Concurrency + 1,
		Seed:    opts.Seed,
		Backend: core.NullBackend{},
		Conduit: hook,
	})
	if err != nil {
		return NetBenchVariant{}, err
	}
	if err := hookErr(); err != nil {
		return NetBenchVariant{}, err
	}
	ids := net.NodeIDs()
	relay := ids[len(ids)-1]
	now := time.Unix(0, 0)
	perClient := opts.Iterations / opts.Concurrency
	if perClient == 0 {
		perClient = 1
	}
	warmPer := opts.Warmup/opts.Concurrency + 1

	// Cold start: the first exchange dials, exchanges hellos and attests the
	// first securechan session — reported apart from the measured ops.
	coldStart := time.Now()
	if err := net.RelayRoundTrip(net.Node(ids[0]), relay, query, now); err != nil {
		return NetBenchVariant{}, fmt.Errorf("cold start: %w", err)
	}
	coldNs := float64(time.Since(coldStart).Nanoseconds())

	lats := make([][]float64, opts.Concurrency)
	for c := range lats {
		lats[c] = make([]float64, 0, perClient)
	}
	run := func(measured bool) error {
		n := warmPer
		if measured {
			n = perClient
		}
		var wg sync.WaitGroup
		errCh := make(chan error, opts.Concurrency)
		for c := 0; c < opts.Concurrency; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := net.Node(ids[c])
				last := time.Now()
				for i := 0; i < n; i++ {
					if err := net.RelayRoundTrip(client, relay, query, now); err != nil {
						errCh <- fmt.Errorf("client %d iteration %d: %w", c, i, err)
						return
					}
					if measured {
						// Consecutive completions = per-op latency (closed
						// loop, no think time) at one clock read per op.
						end := time.Now()
						lats[c] = append(lats[c], float64(end.Sub(last).Nanoseconds()))
						last = end
					}
				}
			}(c)
		}
		wg.Wait()
		close(errCh)
		return <-errCh
	}
	if err := run(false); err != nil {
		return NetBenchVariant{}, fmt.Errorf("warmup: %w", err)
	}
	before := stack().tcp.WriteStats()
	start := time.Now()
	if err := run(true); err != nil {
		return NetBenchVariant{}, err
	}
	elapsed := time.Since(start)
	after := stack().tcp.WriteStats()

	totalOps := perClient * opts.Concurrency
	all := make([]float64, 0, totalOps)
	for _, l := range lats {
		all = append(all, l...)
	}
	nsPerOp := float64(elapsed.Nanoseconds()) / float64(totalOps)
	v := NetBenchVariant{
		Concurrency: opts.Concurrency,
		NsPerOp:     nsPerOp,
		OpsPerSec:   float64(totalOps) / elapsed.Seconds(),
		P50NsPerOp:  stats.Percentile(all, 50),
		P95NsPerOp:  stats.Percentile(all, 95),
		ColdStartNs: coldNs,
		WarmupOps:   warmPer * opts.Concurrency,
	}
	if df := after.Flushes - before.Flushes; df > 0 {
		v.FramesPerFlush = float64(after.Frames-before.Frames) / float64(df)
	}
	return v, nil
}

// WriteJSON writes the result as indented JSON to path. When path already
// holds a NetBenchResult, its summary is prepended to this result's history
// (along with any history it carried), so the file accumulates the
// throughput trajectory across runs.
func (r *NetBenchResult) WriteJSON(path string) error {
	r.History = carryHistory(path, r.History, func(old *NetBenchResult) (NetBenchHistoryEntry, []NetBenchHistoryEntry, bool) {
		return NetBenchHistoryEntry{
			GeneratedAt:            old.GeneratedAt,
			TCPConcurrentOpsPerSec: old.TCPConcurrentOpsPerSec,
			TCPNsPerOp:             old.TCPNsPerOp,
		}, old.History, old.GeneratedAt != ""
	})
	return writeIndentedJSON(path, r)
}

// String renders the result for the terminal.
func (r *NetBenchResult) String() string {
	s := fmt.Sprintf(
		"Network transport (%s):\n  %d iterations per variant, %d clients in the multiplexed variant\n  direct   %8.0f ns/op\n  loopback %8.0f ns/op  (%.0f req/s single client, +%.0f ns TCP overhead)\n  tcp+coalesce multiplexed: %.0f req/s aggregate",
		r.Benchmark, r.Iterations, r.Concurrency, r.DirectNsPerOp, r.TCPNsPerOp,
		r.TCPOpsPerSec, r.OverheadNsPerOp, r.TCPConcurrentOpsPerSec)
	for _, v := range r.Variants {
		s += fmt.Sprintf("\n  %-26s c=%d  %9.0f ns/op  %9.0f ops/s  p50 %8.0f ns  p95 %8.0f ns",
			v.Name, v.Concurrency, v.NsPerOp, v.OpsPerSec, v.P50NsPerOp, v.P95NsPerOp)
		if v.FramesPerFlush > 0 {
			s += fmt.Sprintf("  %.1f frames/flush", v.FramesPerFlush)
		}
	}
	return s
}
