// Command cyclosa-node is the networked deployment: a long-running relay
// daemon serving many concurrent clients over the internal/nettrans frame
// protocol, discovering and attesting other daemons through gossip, and a
// client that attests it and multiplexes queries over one attested session.
//
// Usage:
//
//	cyclosa-node -mode node -listen :7844                     # seed daemon
//	cyclosa-node -mode node -listen :7845 -bootstrap host:7844
//	cyclosa-node -mode node -listen :7844 -ops-addr 127.0.0.1:7890  # + HTTP ops surface
//	cyclosa-node -mode client -connect host:7844 -query "terms"
//	cyclosa-node -mode client -connect host:7844 -n 100 -concurrency 8
//	cyclosa-node -mode view -connect host:7844                # view introspection
//	cyclosa-node -mode demo                                   # daemon + client in one process
//	cyclosa-node -mode node -engine-timeout 500ms -engine-retries 1 \
//	             -engine-breaker-threshold 0.5 -engine-max-inflight 32
//
// The daemon serves the attested query service: each connection runs one
// remote-attestation handshake, then any number of in-flight queries
// multiplex over the session as frame streams. It drains gracefully on
// SIGINT/SIGTERM (stop accepting, finish in-flight exchanges, close).
//
// Membership is dynamic: -bootstrap names seed daemons only. The daemon
// joins by exchanging its partial view with the seeds (gossip frames), then
// keeps gossiping every -gossip-interval; peers discovered through the
// overlay are re-attested as they enter the view and cached in the
// attestation directory. No static peer list exists anywhere — a daemon
// started with only a seed address discovers, attests and serves the whole
// overlay. If every -bootstrap seed is unreachable the daemon exits
// non-zero instead of serving an empty view. `-mode view` dials a daemon
// and prints its live view and directory (id, address, age, attestation).
//
// The client issues -n queries over ONE attested session using -concurrency
// worker goroutines — the stream-multiplexing path, not n serial
// connections — and reports throughput and latency. A query the daemon sheds
// as over the per-client rate (-client-qps/-client-burst) is retried on the
// same session after a bounded backoff, and counted in the report.
//
// Separate processes must share the -ias-secret flag: it stands in for
// Intel's platform provisioning, letting every side reconstruct the
// attestation roots. The daemon answers from its local simulated search
// engine; in a production deployment this is the TLS connection to the real
// engine originating inside the enclave. The engine sits behind the
// internal/backend resilience stack (deadline, retries, circuit breaker,
// overload shedding), tuned by the -engine-* flags; out-of-range values are
// rejected at start-up with usage, and the stack's live counters appear in
// `-mode view` output.
//
// -ops-addr starts the HTTP operations surface (internal/telemetry):
// Prometheus metrics at /metrics, liveness and readiness probes at /healthz
// and /readyz, the live membership view as JSON at /view (no attested TCP
// hop), the recent query-lifecycle trace ring at /debug/traces, and pprof
// under /debug/pprof/. An unbindable -ops-addr is rejected at start-up with
// usage, like every other invalid flag.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/backend"
	"cyclosa/internal/core"
	"cyclosa/internal/enclave"
	"cyclosa/internal/nettrans"
	"cyclosa/internal/queries"
	"cyclosa/internal/rps"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/securechan"
	"cyclosa/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "cyclosa-node:", err)
		os.Exit(1)
	}
}

// run drives one invocation. ready (when non-nil) receives the daemon's
// bound address; stop (when non-nil) shuts the daemon down — both exist so
// tests can run modes in-process without signals.
func run(args []string, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("cyclosa-node", flag.ContinueOnError)
	var (
		mode        = fs.String("mode", "demo", "node|client|view|demo (relay = deprecated alias of node)")
		listen      = fs.String("listen", "127.0.0.1:7844", "daemon listen address")
		connect     = fs.String("connect", "127.0.0.1:7844", "client/view target address")
		query       = fs.String("query", "", "client query (default: topical samples)")
		n           = fs.Int("n", 1, "client: number of queries to issue over one attested session")
		concurrency = fs.Int("concurrency", 4, "client: concurrent in-flight queries (capped at -n)")
		seed        = fs.Int64("seed", 1, "seed for the daemon's simulated engine and sample queries")
		id          = fs.String("id", "cyclosa-node", "daemon identity announced to clients and gossiped in views")
		bootstrap   = fs.String("bootstrap", "", "comma-separated seed daemon addresses; the daemon joins the overlay through them (exits non-zero if none is reachable)")
		advertise   = fs.String("advertise", "", "address gossiped to peers (default: the bound listen address)")
		gossipEvery = fs.Duration("gossip-interval", time.Second, "gossip round period")
		iasSecret   = fs.String("ias-secret", "cyclosa-demo", "shared attestation provisioning secret")
		opsAddr     = fs.String("ops-addr", "", "daemon: HTTP ops listener serving /metrics, /healthz, /readyz, /view, /debug/traces and /debug/pprof (empty disables; node and demo modes)")

		engineTimeout  = fs.Duration("engine-timeout", 800*time.Millisecond, "daemon: total per-query engine budget (attempts, backoffs and retries all inside it)")
		engineRetries  = fs.Int("engine-retries", 2, "daemon: max engine retries per query (0 disables retrying)")
		engineBreaker  = fs.Float64("engine-breaker-threshold", 0.5, "daemon: engine failure rate in (0, 1] that opens the circuit breaker")
		engineInflight = fs.Int("engine-max-inflight", 64, "daemon: concurrent engine calls admitted before shedding with engine-overloaded")

		clientQPS   = fs.Float64("client-qps", 25, "daemon: per-client admitted query rate (token-bucket refill, must be positive and finite)")
		clientBurst = fs.Int("client-burst", 50, "daemon: per-client token-bucket burst capacity (must be positive)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Reject out-of-range resilience settings loudly: a daemon silently
	// falling back to defaults would mask an operator typo until the next
	// brownout.
	engine := backend.Policy{
		Timeout:          *engineTimeout,
		MaxRetries:       *engineRetries,
		BreakerThreshold: *engineBreaker,
		MaxInFlight:      *engineInflight,
	}
	if err := engine.Validate(); err != nil {
		fs.SetOutput(os.Stderr)
		fs.Usage()
		return err
	}
	// Same convention for the admission quota: a daemon that silently ran
	// unthrottled (or with a zero quota) would be an operator trap.
	admission, err := accounting.NewLimiter(accounting.LimiterConfig{QPS: *clientQPS, Burst: *clientBurst})
	if err != nil {
		fs.SetOutput(os.Stderr)
		fs.Usage()
		return err
	}
	// Bind the ops listener here, not inside the daemon: an unbindable
	// -ops-addr (occupied port, bad syntax) must exit non-zero with usage at
	// start-up, exactly like the engine and admission flags, rather than
	// surfacing minutes later as a silently missing metrics endpoint.
	var opsLn net.Listener
	if *opsAddr != "" && (*mode == "node" || *mode == "relay" || *mode == "demo") {
		opsLn, err = net.Listen("tcp", *opsAddr)
		if err != nil {
			fs.SetOutput(os.Stderr)
			fs.Usage()
			return fmt.Errorf("ops-addr: %w", err)
		}
	}

	env := newAttestationEnv(*iasSecret)
	switch *mode {
	case "node", "relay": // relay kept as a deprecated alias
		return runNode(env, nodeConfig{
			listen:      *listen,
			id:          *id,
			seed:        *seed,
			bootstrap:   splitPeers(*bootstrap),
			advertise:   *advertise,
			gossipEvery: *gossipEvery,
			engine:      engine,
			admission:   admission,
			opsLn:       opsLn,
		}, ready, stop)
	case "client":
		return runClient(env, *connect, *query, *n, *concurrency, *seed)
	case "view":
		return runView(os.Stdout, *connect)
	case "demo":
		readyCh := make(chan string, 1)
		stopCh := make(chan struct{})
		errCh := make(chan error, 1)
		go func() {
			errCh <- runNode(env, nodeConfig{listen: "127.0.0.1:0", id: *id, seed: *seed, engine: engine, admission: admission, opsLn: opsLn}, readyCh, stopCh)
		}()
		select {
		case addr := <-readyCh:
			cerr := runClient(env, addr, *query, *n, *concurrency, *seed)
			close(stopCh)
			if err := <-errCh; cerr == nil && err != nil {
				return err
			}
			if cerr != nil {
				return cerr
			}
			fmt.Println("demo: success")
			return nil
		case err := <-errCh:
			return err
		case <-time.After(10 * time.Second):
			return fmt.Errorf("daemon did not start")
		}
	default:
		fs.SetOutput(os.Stderr)
		fs.Usage()
		return fmt.Errorf("unknown mode %q (want node|client|view|demo)", *mode)
	}
}

func splitPeers(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// attestationEnv reconstructs the shared attestation roots on each side.
type attestationEnv struct {
	ias      *enclave.IAS
	relay    *enclave.Platform
	client   *enclave.Platform
	verifier *enclave.Verifier
}

func newAttestationEnv(secret string) *attestationEnv {
	ias := enclave.NewIAS()
	return &attestationEnv{
		ias:      ias,
		relay:    enclave.NewDeterministicPlatform("relay-platform", []byte(secret), ias),
		client:   enclave.NewDeterministicPlatform("client-platform", []byte(secret), ias),
		verifier: enclave.NewVerifier(ias, enclave.MeasureCode(core.EnclaveName, core.EnclaveVersion)),
	}
}

// nodeConfig parametrizes one daemon.
type nodeConfig struct {
	listen      string
	id          string
	seed        int64
	bootstrap   []string
	advertise   string
	gossipEvery time.Duration
	engine      backend.Policy
	// admission is the per-client token-bucket limiter enforced at the
	// service edge, before decrypt and dispatch (nil = unthrottled, only
	// reachable from tests — the flag path always builds one).
	admission *accounting.Limiter
	// opsLn is the pre-bound HTTP ops listener (nil disables the ops
	// surface). Binding happens in run() so flag validation catches an
	// unusable -ops-addr; the daemon takes ownership.
	opsLn net.Listener
	// drainHook, when non-nil, is called between drain stages (test seam
	// for shutdown-order assertions). Stages: "frame-drained" fires after
	// the goaway drain completes and before the ops server shuts down.
	drainHook func(stage string)
}

// runNode runs the long-running relay daemon until a signal (or stop
// closes), then drains gracefully. With bootstrap seeds configured the
// daemon joins the gossip overlay through them — and fails hard when none
// is reachable, because a relay with an empty view is useless and the
// operator should know immediately.
func runNode(env *attestationEnv, cfg nodeConfig, ready chan<- string, stop <-chan struct{}) error {
	if cfg.gossipEvery <= 0 {
		cfg.gossipEvery = time.Second
	}
	encl := env.relay.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion})
	hs, err := securechan.NewHandshaker(encl, env.verifier)
	if err != nil {
		return err
	}
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: cfg.seed})
	engine := searchengine.New(uni, searchengine.Config{Seed: cfg.seed})
	// The engine answers from behind the full resilience stack: deadline,
	// retries, breaker, admission gate — so a browned-out engine degrades
	// this daemon's answers instead of wedging its connections.
	stack := backend.NewStack(engine, cfg.engine)

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "node: "+format+"\n", args...)
	}
	// The attestation directory's verifier: every peer entering the view is
	// dialed and taken through the full remote-attestation handshake; its
	// measurement is cached as directory evidence. DialService wraps
	// verification failures in ErrAttestRejected, which the membership layer
	// turns into a blacklist entry (transport failures only evict).
	attest := func(peerID, addr string) (string, error) {
		pc, err := nettrans.DialService(addr, hs, nettrans.ClientConfig{ID: cfg.id, DialTimeout: 3 * time.Second})
		if err != nil {
			return "", err
		}
		defer pc.Close()
		// Bind the gossiped identity to the dialed endpoint: a daemon that
		// gossips someone else's ID with its own address must not get that
		// ID's directory entry pointed at it. An identity mismatch is a
		// verification failure (blacklist), not mere unreachability.
		if pc.ServerID() != peerID {
			return "", fmt.Errorf("%w: %s claims identity %q, gossiped as %q",
				nettrans.ErrAttestRejected, addr, pc.ServerID(), peerID)
		}
		return pc.PeerMeasurement(), nil
	}
	// The misbehavior ledger gossips per-node evidence over the accounting
	// frame, so a blacklist verdict reached here convinces the rest of the
	// overlay without a coordinator.
	ledger := accounting.NewLedger(cfg.id)
	// srv is assigned below, before any goroutine serves traffic; the
	// closure lets view snapshots sample the server's write-path counters
	// even though the server is built after the membership plane.
	var srv *nettrans.Server
	memCfg := nettrans.MembershipConfig{
		Self:       rps.Descriptor{ID: rps.NodeID(cfg.id)},
		Bootstrap:  cfg.bootstrap,
		Interval:   cfg.gossipEvery,
		Attest:     attest,
		PoolConfig: nettrans.PoolConfig{ID: cfg.id, DialTimeout: 3 * time.Second, RequestTimeout: 5 * time.Second},
		Logf:       logf,
		Ledger:     ledger,
		// Surface the stack's counters in every view snapshot so `-mode
		// view` shows brownout state (shed, retries, breaker) live.
		BackendStats: stack.Stats,
		WriteStats: func() nettrans.WriteStatsSnapshot {
			if srv == nil {
				return nettrans.WriteStatsSnapshot{}
			}
			return srv.WriteStats()
		},
	}
	if cfg.admission != nil {
		memCfg.AdmissionStats = cfg.admission.Stats
	}
	membership := nettrans.NewMembership(memCfg)
	defer membership.Stop()

	srv = nettrans.NewServer(nettrans.ServerConfig{
		ID:         cfg.id,
		Service:    &nettrans.RelayService{Handshaker: hs, Backend: stack, Source: cfg.id},
		Membership: membership,
		Admission:  cfg.admission,
		Logf:       logf,
	})
	addr, err := srv.Listen(cfg.listen)
	if err != nil {
		return err
	}
	adv := cfg.advertise
	if adv == "" {
		adv = addr.String()
	}
	membership.SetAdvertise(adv)
	fmt.Printf("node %s: listening on %s, advertising %s (enclave %s)\n", cfg.id, addr, adv, encl.Measurement())

	// The ops surface pairs the process-wide registry (hot-path counters
	// and histograms from core/nettrans) with an instance registry of
	// sampled gauges over this daemon's subsystems. readyFlag gates
	// /readyz: true only once the overlay join finished and the frame
	// listener serves — "joined + attested + serving".
	var readyFlag atomic.Bool
	var ops *telemetry.OpsServer
	if cfg.opsLn != nil {
		inst := telemetry.NewRegistry()
		registerNodeMetrics(inst, stack, cfg.admission, ledger, membership, srv)
		ops = telemetry.NewOpsServer(telemetry.OpsConfig{
			Registries: []*telemetry.Registry{telemetry.Default(), inst},
			Traces:     telemetry.Traces(),
			View:       func() (any, error) { return membership.Snapshot(), nil },
			Ready:      readyFlag.Load,
			Logf:       logf,
		})
		opsLn := cfg.opsLn
		go func() {
			if err := ops.ServeListener(opsLn); err != nil {
				logf("ops server: %v", err)
			}
		}()
		// Idempotent backstop for early-error returns (e.g. bootstrap
		// failure): the graceful drain below shuts the server down first,
		// making this a no-op.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			_ = ops.Shutdown(ctx)
			cancel()
		}()
		fmt.Printf("node %s: ops surface on http://%s (/metrics /healthz /readyz /view /debug/traces /debug/pprof)\n", cfg.id, opsLn.Addr())
	}

	// Catch shutdown signals before the bootstrap: unreachable seeds cost
	// dial timeouts, and a SIGTERM in that window must still reach the
	// graceful drain below rather than killing the process outright.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve() }()
	defer srv.Close()

	// Join the overlay. With seeds configured and none reachable this is
	// fatal — exit non-zero with a clear message instead of serving an
	// empty view that every client would mistake for a healthy daemon.
	if err := membership.Bootstrap(); err != nil {
		return fmt.Errorf("join failed, no bootstrap seed reachable (tried %s): %w",
			strings.Join(cfg.bootstrap, ", "), err)
	}
	if len(cfg.bootstrap) > 0 {
		fmt.Printf("node %s: joined overlay via %s\n", cfg.id, strings.Join(cfg.bootstrap, ", "))
	}
	membership.Start()
	readyFlag.Store(true)
	if ready != nil {
		ready <- addr.String()
	}

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Printf("node %s: %s, draining\n", cfg.id, s)
	case <-stop:
	}
	// Drain order: flip readiness (load balancers stop routing), stop
	// gossip, close the frame listener and wait out the goaway drain —
	// and only then shut the ops listener down. A scrape racing the drain
	// completes against the fully drained process, so the fleet's last
	// sample of this daemon reflects its final state instead of a dropped
	// connection.
	readyFlag.Store(false)
	membership.Stop()
	srvErr := srv.Close()
	if cfg.drainHook != nil {
		cfg.drainHook("frame-drained")
	}
	if ops != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		opsErr := ops.Shutdown(ctx)
		cancel()
		if srvErr == nil {
			srvErr = opsErr
		}
	}
	return srvErr
}

// runView dials a daemon's introspection endpoint and renders its live view
// and attestation directory.
func runView(w io.Writer, addr string) error {
	snap, err := nettrans.FetchView(addr, nettrans.PoolConfig{DialTimeout: 3 * time.Second, RequestTimeout: 5 * time.Second})
	if err != nil {
		return fmt.Errorf("view of %s: %w", addr, err)
	}
	fmt.Fprintf(w, "view of %s (%s) after %d gossip rounds: %d peer(s)\n",
		snap.Self, snap.Addr, snap.Rounds, len(snap.Peers))
	if len(snap.Peers) > 0 {
		fmt.Fprintf(w, "  %-20s %-22s %5s  %-8s %s\n", "PEER", "ADDR", "AGE", "ATTESTED", "MEASUREMENT")
		for _, p := range snap.Peers {
			att := "no"
			if p.Attested {
				att = "yes"
			}
			fmt.Fprintf(w, "  %-20s %-22s %5d  %-8s %s\n", p.ID, p.Addr, p.Age, att, p.Measurement)
		}
	}
	if len(snap.Blacklisted) > 0 {
		fmt.Fprintf(w, "blacklisted: %s\n", strings.Join(snap.Blacklisted, ", "))
	}
	if b := snap.Backend; b != nil {
		state := "closed"
		if b.BreakerOpen {
			state = "OPEN"
		}
		fmt.Fprintf(w, "backend: %d calls (%d ok, %d engine-errors, %d timeouts), %d shed, %d retried, %d in flight\n",
			b.Calls, b.Successes, b.EngineErrors, b.Timeouts, b.Shed, b.Retries, b.InFlight)
		fmt.Fprintf(w, "breaker: %s (%d opens, %d rejected, open %v total)\n",
			state, b.BreakerOpens, b.BreakerRejected, time.Duration(b.BreakerOpenNanos).Round(time.Millisecond))
	}
	if a := snap.Admission; a != nil {
		fmt.Fprintf(w, "admission: %d admitted, %d throttled, %d client bucket(s) live, %d evicted\n",
			a.Admitted, a.Throttled, a.Clients, a.Evicted)
	}
	if wr := snap.Write; wr != nil {
		fmt.Fprintf(w, "write path: %d frames in %d flushes (%.2f frames/flush), %d bytes\n",
			wr.Frames, wr.Flushes, wr.FramesPerFlush(), wr.Bytes)
	}
	if len(snap.Misbehavior) > 0 {
		subjects := make([]string, 0, len(snap.Misbehavior))
		for s := range snap.Misbehavior {
			subjects = append(subjects, s)
		}
		sort.Strings(subjects)
		fmt.Fprintf(w, "misbehavior:\n")
		for _, s := range subjects {
			fmt.Fprintf(w, "  %-20s %d\n", s, snap.Misbehavior[s])
		}
	}
	return nil
}

// Bounds on waiting out the daemon's per-client admission: a throttled
// query is retried up to throttleRetries times, sleeping 25 ms doubling to a
// 2 s cap in between (about 5 s in all) before the error is surfaced.
const (
	throttleRetries     = 8
	throttleBackoffBase = 25 * time.Millisecond
	throttleBackoffMax  = 2 * time.Second
)

// backoffClient retries queries the daemon sheds with ErrClientThrottled.
// All workers share one identity, hence one token bucket, so the client
// backs off as a whole: queries run under the read lock, and the worker
// that was throttled takes the write lock while it waits and retries —
// pausing the others instead of letting them burn the refill.
type backoffClient struct {
	c         *nettrans.Client
	gate      sync.RWMutex
	throttled atomic.Int64 // shed attempts, each followed by a retry
}

func (b *backoffClient) query(q string) ([]searchengine.Result, error) {
	b.gate.RLock()
	results, err := b.c.Query(q)
	b.gate.RUnlock()
	if !errors.Is(err, accounting.ErrClientThrottled) {
		return results, err
	}
	b.gate.Lock()
	defer b.gate.Unlock()
	wait := throttleBackoffBase
	for try := 0; try < throttleRetries && errors.Is(err, accounting.ErrClientThrottled); try++ {
		b.throttled.Add(1)
		time.Sleep(wait)
		wait = min(2*wait, throttleBackoffMax)
		results, err = b.c.Query(q)
	}
	return results, err
}

// runClient attests the daemon and issues n queries over the single
// session, concurrency at a time.
func runClient(env *attestationEnv, addr, query string, n, concurrency int, seed int64) error {
	encl := env.client.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion})
	hs, err := securechan.NewHandshaker(encl, env.verifier)
	if err != nil {
		return err
	}
	c, err := nettrans.DialService(addr, hs, nettrans.ClientConfig{ID: "cyclosa-client"})
	if err != nil {
		return fmt.Errorf("attested dial: %w", err)
	}
	defer c.Close()
	fmt.Printf("client: attested %s (relay enclave %s)\n", c.ServerID(), c.PeerMeasurement())
	bc := &backoffClient{c: c}

	uni := queries.NewUniverse(queries.UniverseConfig{Seed: seed})
	sample := sampleQueries(uni)
	queryFor := func(i int) string {
		if query != "" {
			return query
		}
		return sample[i%len(sample)]
	}

	if n <= 1 {
		results, err := bc.query(queryFor(0))
		if err != nil {
			return err
		}
		printResults(queryFor(0), results)
		return nil
	}

	if concurrency < 1 {
		concurrency = 1
	}
	if concurrency > n {
		concurrency = n
	}
	var (
		next      atomic.Int64
		answered  atomic.Int64
		refused   atomic.Int64
		firstErr  error
		errOnce   sync.Once
		latencies = make([]time.Duration, n)
		wg        sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				qStart := time.Now()
				_, err := bc.query(queryFor(i))
				latencies[i] = time.Since(qStart)
				switch {
				case err == nil:
					answered.Add(1)
				case isEngineRefusal(err):
					refused.Add(1) // the engine said no; the transport worked
				default:
					errOnce.Do(func() { firstErr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return fmt.Errorf("after %d answered: %w", answered.Load(), firstErr)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	fmt.Printf("client: %d queries over one attested session (%d in flight): %d answered, %d engine-refused, %d throttled and retried in %v\n",
		n, concurrency, answered.Load(), refused.Load(), bc.throttled.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("client: %.0f req/s, p50 %v, p99 %v\n",
		float64(n)/elapsed.Seconds(),
		latencies[n/2].Round(time.Microsecond),
		latencies[n*99/100].Round(time.Microsecond))
	return nil
}

func isEngineRefusal(err error) bool {
	return errors.Is(err, nettrans.ErrEngineRefused)
}

// sampleQueries derives a deterministic topical query pool from the
// universe.
func sampleQueries(uni *queries.Universe) []string {
	var out []string
	for _, name := range uni.TopicNames() {
		topic := uni.Topic(name)
		if len(topic.Terms) >= 2 {
			out = append(out, topic.Terms[0]+" "+topic.Terms[1])
		}
		if len(out) >= 32 {
			break
		}
	}
	if len(out) == 0 {
		out = []string{"cyclosa probe"}
	}
	return out
}

func printResults(query string, results []searchengine.Result) {
	fmt.Printf("client: %d results for %q\n", len(results), query)
	for i, r := range results {
		if i >= 5 {
			break
		}
		fmt.Printf("  %d. %s (%s)\n", i+1, r.Title, r.URL)
	}
}
