// Command cyclosa-node is the networked deployment of the paper's protocol:
// every process hosts one core.Node — enclave, past-query table, sensitivity
// analyzer, relay — joins the gossip overlay, attests the peers it discovers
// and forwards to them over the internal/nettrans frame protocol.
//
// Usage:
//
//	cyclosa-node -mode node -listen :7844 -id a                     # seed daemon
//	cyclosa-node -mode node -listen :7845 -id b -bootstrap host:7844
//	cyclosa-node -mode node -listen :7844 -ops-addr 127.0.0.1:7890  # + HTTP ops surface
//	cyclosa-node -mode client -connect host:7844 -query "terms"
//	cyclosa-node -mode client -connect host:7844 -n 100 -concurrency 8
//	cyclosa-node -mode view -connect host:7844                      # view introspection
//	cyclosa-node -mode demo                                         # three daemons + client in one process
//	cyclosa-node -mode node -engine-timeout 500ms -engine-retries 1 \
//	             -engine-breaker-threshold 0.5 -engine-max-inflight 32
//
// A daemon (-mode node) is a relay other nodes sample: it answers attest
// frames (one attested session per client, owned by the client's connection)
// and data frames (one sealed forward each: decrypt in the enclave, record
// the query in the table, submit it to the engine, seal the page). It drains
// gracefully on SIGINT/SIGTERM (stop accepting, finish in-flight exchanges,
// close).
//
// The client (-mode client) is the paper's browser extension: the same node,
// listening on an ephemeral port and bootstrapped from -connect. It waits
// (bounded) for the peers it discovers to be attested, then runs -n searches,
// -concurrency at a time, through core.Node.Search — sensitivity assessment,
// adaptive k, k fakes drawn from its table, k+1 distinct attested relays,
// response filtering (Fig 4) — and prints each search's k, real relay and
// latency. Its analyzer is the WordNet detector over the default sensitive
// topics plus linkability against its own history, kmax 7; its table starts
// from a trending-queries batch (§V-D).
//
// Membership is dynamic: -bootstrap (and the client's -connect) names seed
// daemons only. A node joins by exchanging its partial view with the seeds
// (gossip frames), then keeps gossiping every -gossip-interval; a peer
// entering the view is taken through the attested key exchange — the same
// pair handshake a forward to it would run, so the session it leaves is the
// one forwards use — and only then resolves as a relay. No static peer list
// exists anywhere. If every seed is unreachable the node exits non-zero
// instead of serving an empty view. `-mode view` dials a daemon and prints
// its live view and directory (id, address, age, attestation).
//
// -client-qps/-client-burst guard the forwards a daemon relays: each client
// identity gets a token bucket, and a forward over quota is shed before it
// is decrypted. The client sees core.ErrRelayThrottled, sends the query
// through a different relay, and when every relay sheds it backs off and
// repeats the search.
//
// Separate processes must share the -ias-secret flag: it stands in for
// Intel's platform provisioning, letting every side reconstruct the
// attestation roots. A relay answers from its local simulated search
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
// hop), the recent forward-lifecycle trace ring at /debug/traces, and pprof
// under /debug/pprof/. An unbindable -ops-addr is rejected at start-up with
// usage, like every other invalid flag.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
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
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/telemetry"
	"cyclosa/internal/wordnet"
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
		mode        = fs.String("mode", "demo", "node|client|view|demo")
		listen      = fs.String("listen", "127.0.0.1:7844", "daemon listen address")
		connect     = fs.String("connect", "127.0.0.1:7844", "client: seed daemon to join through; view: target address")
		query       = fs.String("query", "", "client query (default: topical samples)")
		n           = fs.Int("n", 1, "client: number of protected searches to run")
		concurrency = fs.Int("concurrency", 4, "client: concurrent searches (capped at -n)")
		seed        = fs.Int64("seed", 1, "seed for the simulated engine, the table bootstrap and the sample queries")
		id          = fs.String("id", "cyclosa-node", "node identity announced to peers and gossiped in views (client default: a random client-… name)")
		bootstrap   = fs.String("bootstrap", "", "comma-separated seed daemon addresses; the daemon joins the overlay through them (exits non-zero if none is reachable)")
		advertise   = fs.String("advertise", "", "address gossiped to peers (default: the bound listen address)")
		gossipEvery = fs.Duration("gossip-interval", time.Second, "gossip round period")
		iasSecret   = fs.String("ias-secret", "cyclosa-demo", "shared attestation provisioning secret")
		opsAddr     = fs.String("ops-addr", "", "daemon: HTTP ops listener serving /metrics, /healthz, /readyz, /view, /debug/traces and /debug/pprof (empty disables; node and demo modes)")

		engineTimeout  = fs.Duration("engine-timeout", 800*time.Millisecond, "total per-query engine budget (attempts, backoffs and retries all inside it)")
		engineRetries  = fs.Int("engine-retries", 2, "max engine retries per query (0 disables retrying)")
		engineBreaker  = fs.Float64("engine-breaker-threshold", 0.5, "engine failure rate in (0, 1] that opens the circuit breaker")
		engineInflight = fs.Int("engine-max-inflight", 64, "concurrent engine calls admitted before shedding with engine-overloaded")

		clientQPS   = fs.Float64("client-qps", 25, "per-client admitted rate of relayed forwards (token-bucket refill, must be positive and finite)")
		clientBurst = fs.Int("client-burst", 50, "per-client token-bucket burst capacity (must be positive)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	usage := func(err error) error {
		fs.SetOutput(os.Stderr)
		fs.Usage()
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
		return usage(err)
	}
	// Same convention for the admission quota: a daemon that silently ran
	// unthrottled (or with a zero quota) would be an operator trap. Every
	// node gets its own limiter — the quota is per relay.
	quota := accounting.LimiterConfig{QPS: *clientQPS, Burst: *clientBurst}
	if _, err := accounting.NewLimiter(quota); err != nil {
		return usage(err)
	}
	// Bind the ops listener here, not inside the daemon: an unbindable
	// -ops-addr (occupied port, bad syntax) must exit non-zero with usage at
	// start-up, exactly like the engine and admission flags, rather than
	// surfacing minutes later as a silently missing metrics endpoint.
	var opsLn net.Listener
	if *opsAddr != "" && (*mode == "node" || *mode == "demo") {
		var err error
		if opsLn, err = net.Listen("tcp", *opsAddr); err != nil {
			return usage(fmt.Errorf("ops-addr: %w", err))
		}
	}

	env := newAttestationEnv(*iasSecret)
	nodeCfg := func(id, listen string, bootstrap []string) nodeConfig {
		lim, _ := accounting.NewLimiter(quota) // validated above
		return nodeConfig{
			listen:      listen,
			id:          id,
			seed:        *seed,
			bootstrap:   bootstrap,
			gossipEvery: *gossipEvery,
			engine:      engine,
			admission:   lim,
		}
	}
	client := func(seedAddr string) error {
		// The client's identity keys its admission bucket and its sessions at
		// every relay, so two clients must never share one by accident.
		cid := fmt.Sprintf("client-%08x", rand.Uint32())
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "id" {
				cid = *id
			}
		})
		return runClient(env, nodeCfg(cid, "127.0.0.1:0", []string{seedAddr}), *query, *n, *concurrency)
	}

	switch *mode {
	case "node":
		cfg := nodeCfg(*id, *listen, splitPeers(*bootstrap))
		cfg.advertise = *advertise
		cfg.opsLn = opsLn
		return runNode(env, cfg, ready, stop)
	case "client":
		return client(*connect)
	case "view":
		return runView(os.Stdout, *connect)
	case "demo":
		// Three daemons joined through the first, then the client: enough
		// relays for a sensitive query to leave with k = 2 fakes.
		stopCh := make(chan struct{})
		errCh := make(chan error, demoDaemons)
		var seedAddr string
		for i := 0; i < demoDaemons; i++ {
			cfg := nodeCfg(fmt.Sprintf("%s-%d", *id, i), "127.0.0.1:0", nil)
			if i == 0 {
				cfg.opsLn = opsLn
			} else {
				cfg.bootstrap = []string{seedAddr}
			}
			readyCh := make(chan string, 1)
			go func() { errCh <- runNode(env, cfg, readyCh, stopCh) }()
			select {
			case addr := <-readyCh:
				if i == 0 {
					seedAddr = addr
				}
			case err := <-errCh:
				close(stopCh)
				return err
			case <-time.After(10 * time.Second):
				close(stopCh)
				return fmt.Errorf("daemon %d did not start", i)
			}
		}
		cerr := client(seedAddr)
		close(stopCh)
		for i := 0; i < demoDaemons; i++ {
			if err := <-errCh; cerr == nil {
				cerr = err
			}
		}
		if cerr != nil {
			return cerr
		}
		fmt.Println("demo: success")
		return nil
	default:
		return usage(fmt.Errorf("unknown mode %q (want node|client|view|demo)", *mode))
	}
}

// demoDaemons is the number of relays -mode demo starts.
const demoDaemons = 3

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

// nodeConfig parametrizes one hosted node.
type nodeConfig struct {
	listen      string
	id          string
	seed        int64
	bootstrap   []string
	advertise   string
	gossipEvery time.Duration
	engine      backend.Policy
	// admission is the per-client token-bucket limiter enforced on relayed
	// forwards, before decrypt and dispatch (nil = unthrottled, only
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

// The protection constants of a hosted node: the paper's kmax, and the size
// of the trending-queries batch its fake-query table starts from (§V-D).
const (
	kMax           = sensitivity.DefaultKMax
	tableBootstrap = 32
)

// host is one hosted node and the planes around it: the membership overlay
// that samples and attests its relays, the pooled conduit its forwards leave
// through, and the server its peers reach it on.
type host struct {
	id         string
	node       *core.Node
	engine     *searchengine.Engine
	stack      *backend.Stack
	ledger     *accounting.Ledger
	membership *nettrans.Membership
	pool       *nettrans.Pool
	srv        *nettrans.Server
	addr       net.Addr
	serveErr   chan error
}

// startHost builds the node and binds and serves its server; join then
// enters the overlay.
func startHost(platform *enclave.Platform, verifier *enclave.Verifier, cfg nodeConfig, logf func(string, ...any)) (*host, error) {
	if cfg.gossipEvery <= 0 {
		cfg.gossipEvery = time.Second
	}
	h := &host{id: cfg.id, ledger: accounting.NewLedger(cfg.id), serveErr: make(chan error, 1)}

	uni := queries.NewUniverse(queries.UniverseConfig{Seed: cfg.seed})
	// The engine answers from behind the full resilience stack: deadline,
	// retries, breaker, admission gate — so a browned-out engine degrades
	// this relay's answers instead of wedging its connections.
	h.engine = searchengine.New(uni, searchengine.Config{Seed: cfg.seed})
	h.stack = backend.NewStack(h.engine, cfg.engine)

	// One pool carries gossip, attestation and forwards: a peer is one
	// connection, and the sessions attested on it are the ones forwards use.
	h.pool = nettrans.NewPool(nettrans.PoolConfig{ID: cfg.id, DialTimeout: 3 * time.Second, RequestTimeout: 5 * time.Second})

	// The attestation directory's verifier: every peer entering the view is
	// taken through the node's own pair handshake at the address it
	// gossiped. A peer that refuses the exchange, fails verification, or —
	// gossiping someone else's identity — hosts no such node is rejected
	// (blacklisted); an unreachable one is merely evicted.
	attest := func(peerID, addr string) (string, error) {
		via := nettrans.NewTCPConduit(nettrans.ConduitConfig{
			Resolve: nettrans.StaticResolver(map[string]string{peerID: addr}),
			Pool:    h.pool,
		})
		m, err := h.node.AttestRelay(peerID, via)
		switch {
		case err == nil:
			return m.String(), nil
		case errors.Is(err, core.ErrRelayUnavailable):
			return "", err
		}
		return "", fmt.Errorf("%w: %w", nettrans.ErrAttestRejected, err)
	}
	memCfg := nettrans.MembershipConfig{
		Self:      rps.Descriptor{ID: rps.NodeID(cfg.id)},
		Bootstrap: cfg.bootstrap,
		Interval:  cfg.gossipEvery,
		Attest:    attest,
		Pool:      h.pool,
		Logf:      logf,
		// The misbehavior ledger gossips per-node evidence over the
		// accounting frame, so a blacklist verdict reached here — every
		// relay the node's searches blacklist lands in it through the
		// overlay's OnBlacklist hook — convinces the rest of the overlay
		// without a coordinator.
		Ledger: h.ledger,
		// Surface the stack's counters in every view snapshot so `-mode
		// view` shows brownout state (shed, retries, breaker) live.
		BackendStats: h.stack.Stats,
		// srv is assigned below, before anything serves a snapshot.
		WriteStats: func() nettrans.WriteStatsSnapshot { return h.srv.WriteStats() },
	}
	if cfg.admission != nil {
		memCfg.AdmissionStats = cfg.admission.Stats
	}
	h.membership = nettrans.NewMembership(memCfg)

	db := wordnet.Build(uni, wordnet.BuildConfig{Seed: cfg.seed})
	analyzer := sensitivity.NewAnalyzer(
		sensitivity.NewWordNetDetector(db, queries.DefaultSensitiveTopics),
		sensitivity.NewLinkability(0), kMax)
	link := nettrans.NewTCPConduit(nettrans.ConduitConfig{Resolve: h.membership.Resolve, Pool: h.pool})
	var err error
	h.node, err = core.NewHostedNode(core.NodeOptions{ID: cfg.id, Analyzer: analyzer, Seed: cfg.seed},
		platform, verifier, h.membership.Node(), h.stack, link)
	if err != nil {
		h.pool.Close()
		return nil, err
	}
	h.node.BootstrapTable(queries.NewTrendingSource(uni, cfg.seed).Batch(tableBootstrap))

	h.srv = nettrans.NewServer(nettrans.ServerConfig{
		ID:         cfg.id,
		Handler:    h.node.Local(),
		Membership: h.membership,
		Admission:  cfg.admission,
		Logf:       logf,
	})
	if h.addr, err = h.srv.Listen(cfg.listen); err != nil {
		h.pool.Close()
		return nil, err
	}
	adv := cfg.advertise
	if adv == "" {
		adv = h.addr.String()
	}
	h.membership.SetAdvertise(adv)
	fmt.Printf("node %s: listening on %s, advertising %s (enclave %s)\n", cfg.id, h.addr, adv, h.node.Enclave().Measurement())
	go func() { h.serveErr <- h.srv.Serve() }()
	return h, nil
}

// join enters the overlay through the bootstrap seeds and starts gossiping.
// With seeds configured and none reachable it fails — exit non-zero with a
// clear message instead of serving an empty view that every client would
// mistake for a healthy daemon.
func (h *host) join(seeds []string) error {
	if err := h.membership.Bootstrap(); err != nil {
		return fmt.Errorf("join failed, no bootstrap seed reachable (tried %s): %w", strings.Join(seeds, ", "), err)
	}
	if len(seeds) > 0 {
		fmt.Printf("node %s: joined overlay via %s\n", h.id, strings.Join(seeds, ", "))
	}
	h.membership.Start()
	return nil
}

// drain stops gossip, closes the frame listener and waits out the goaway
// drain, then releases the pool.
func (h *host) drain() error {
	h.membership.Stop()
	err := h.srv.Close()
	h.pool.Close()
	return err
}

// runNode runs the long-running relay daemon until a signal (or stop
// closes), then drains gracefully.
func runNode(env *attestationEnv, cfg nodeConfig, ready chan<- string, stop <-chan struct{}) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "node: "+format+"\n", args...)
	}
	// Catch shutdown signals before the bootstrap: unreachable seeds cost
	// dial timeouts, and a SIGTERM in that window must still reach the
	// graceful drain below rather than killing the process outright.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	h, err := startHost(env.relay, env.verifier, cfg, logf)
	if err != nil {
		if cfg.opsLn != nil {
			cfg.opsLn.Close()
		}
		return err
	}

	// The ops surface pairs the process-wide registry (hot-path counters
	// and histograms from core/nettrans) with an instance registry of
	// sampled gauges over this daemon's subsystems. readyFlag gates
	// /readyz: true only once the overlay join finished and the frame
	// listener serves — "joined + attested + serving".
	var readyFlag atomic.Bool
	var ops *telemetry.OpsServer
	if cfg.opsLn != nil {
		inst := telemetry.NewRegistry()
		registerNodeMetrics(inst, h.stack, cfg.admission, h.ledger, h.membership, h.srv)
		ops = telemetry.NewOpsServer(telemetry.OpsConfig{
			Registries: []*telemetry.Registry{telemetry.Default(), inst},
			Traces:     telemetry.Traces(),
			View:       func() (any, error) { return h.membership.Snapshot(), nil },
			Ready:      readyFlag.Load,
			Logf:       logf,
		})
		opsLn := cfg.opsLn
		go func() {
			if err := ops.ServeListener(opsLn); err != nil {
				logf("ops server: %v", err)
			}
		}()
		fmt.Printf("node %s: ops surface on http://%s (/metrics /healthz /readyz /view /debug/traces /debug/pprof)\n", cfg.id, opsLn.Addr())
	}

	// A failed join skips the serving phase and goes straight to the drain.
	if err = h.join(cfg.bootstrap); err == nil {
		readyFlag.Store(true)
		if ready != nil {
			ready <- h.addr.String()
		}
		select {
		case err = <-h.serveErr:
		case s := <-sig:
			fmt.Printf("node %s: %s, draining\n", cfg.id, s)
		case <-stop:
		}
	}
	// Drain order: flip readiness (load balancers stop routing), stop
	// gossip, close the frame listener and wait out the goaway drain —
	// and only then shut the ops listener down. A scrape racing the drain
	// completes against the fully drained process, so the fleet's last
	// sample of this daemon reflects its final state instead of a dropped
	// connection.
	readyFlag.Store(false)
	srvErr := h.drain()
	if err == nil {
		err = srvErr
	}
	if cfg.drainHook != nil {
		cfg.drainHook("frame-drained")
	}
	if ops != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		opsErr := ops.Shutdown(ctx)
		cancel()
		if err == nil {
			err = opsErr
		}
	}
	return err
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

// Bounds on the client's waits. attestWait covers the gossip rounds and key
// exchanges between joining and having relays to sample. A search whose real
// query every relay shed as over quota is repeated up to throttleRetries
// times, sleeping 25 ms doubling to a 2 s cap in between (about 5 s in all)
// before the error is surfaced.
const (
	attestWait          = 10 * time.Second
	throttleRetries     = 8
	throttleBackoffBase = 25 * time.Millisecond
	throttleBackoffMax  = 2 * time.Second
)

// awaitRelays blocks until every peer in the view is attested (the overlay
// has told the client all it is going to, for now) and there is at least
// one, or attestWait is over — then any attested peer will do. A view
// emptied by failed attestations ends the wait at once.
func awaitRelays(m *nettrans.Membership) (int, error) {
	deadline := time.Now().Add(attestWait)
	for {
		snap := m.Snapshot()
		attested := 0
		for _, p := range snap.Peers {
			if p.Attested {
				attested++
			}
		}
		late := time.Now().After(deadline)
		switch {
		case attested > 0 && (attested == len(snap.Peers) || late):
			return attested, nil
		case len(snap.Peers) == 0 && len(snap.Blacklisted) > 0:
			return 0, fmt.Errorf("no relay left: %s failed attestation", strings.Join(snap.Blacklisted, ", "))
		case late:
			return 0, fmt.Errorf("no attested relay after %v (%d peer(s) in view)", attestWait, len(snap.Peers))
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// search is one protected search, repeated with backoff while every relay
// the real query reached shed it as over quota; throttled counts the repeats.
// This is the one place that waits: the protocol's own answer to a throttle
// is a different relay at once (core's forwardWithRetry), which cannot help
// when all of them are over quota — only the buckets refilling can, and a
// -n run far above the burst (TestClientRidesOutThrottling fails without
// this loop) has to outlast that.
func search(node *core.Node, q string, throttled *atomic.Int64) (*core.SearchResult, error) {
	res, err := node.Search(q, time.Now())
	wait := throttleBackoffBase
	for try := 0; try < throttleRetries && errors.Is(err, core.ErrRelayThrottled); try++ {
		throttled.Add(1)
		time.Sleep(wait)
		wait = min(2*wait, throttleBackoffMax)
		res, err = node.Search(q, time.Now())
	}
	return res, err
}

// runClient hosts the client's node, waits for attested relays and runs n
// protected searches, concurrency at a time.
func runClient(env *attestationEnv, cfg nodeConfig, query string, n, concurrency int) error {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "client: "+format+"\n", args...)
	}
	h, err := startHost(env.client, env.verifier, cfg, logf)
	if err != nil {
		return err
	}
	defer h.drain()
	if err := h.join(cfg.bootstrap); err != nil {
		return err
	}
	relays, err := awaitRelays(h.membership)
	if err != nil {
		return err
	}
	fmt.Printf("client %s: %d attested relay(s)\n", h.id, relays)

	sample := sampleQueries(queries.NewUniverse(queries.UniverseConfig{Seed: cfg.seed}))
	queryFor := func(i int) string {
		if query != "" {
			return query
		}
		return sample[i%len(sample)]
	}

	var throttled atomic.Int64
	if n <= 1 {
		start := time.Now()
		res, err := search(h.node, queryFor(0), &throttled)
		if err != nil {
			return err
		}
		fmt.Printf("client: k=%d fakes, real query relayed by %s, %v\n", res.K, res.RealRelay, time.Since(start).Round(time.Microsecond))
		if res.EngineError != nil {
			return fmt.Errorf("engine refused %q: %w", queryFor(0), res.EngineError)
		}
		printResults(queryFor(0), res.Results)
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
		sumK      atomic.Int64
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
				res, err := search(h.node, queryFor(i), &throttled)
				latencies[i] = time.Since(qStart)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				sumK.Add(int64(res.K))
				if res.EngineError != nil {
					refused.Add(1) // the engine said no; the protocol worked
				} else {
					answered.Add(1)
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
	st := h.node.Stats()
	fmt.Printf("client: %d searches (%d in flight): %d answered, %d engine-refused, %d throttled and repeated in %v\n",
		n, concurrency, answered.Load(), refused.Load(), throttled.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("client: mean k %.2f (%d fakes sent), %d relay(s) blacklisted, %.0f searches/s, p50 %v, p99 %v\n",
		float64(sumK.Load())/float64(n), st.FakesSent, st.Blacklisted,
		float64(n)/elapsed.Seconds(),
		latencies[n/2].Round(time.Microsecond),
		latencies[n*99/100].Round(time.Microsecond))
	return nil
}

// sampleQueries derives a deterministic topical query pool from the
// universe, the sensitive topics first: the first sample gets k = kmax.
func sampleQueries(uni *queries.Universe) []string {
	var out []string
	for _, name := range append(uni.SensitiveTopicNames(), uni.TopicNames()...) {
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
