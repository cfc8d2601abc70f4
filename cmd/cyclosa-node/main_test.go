package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/nettrans"
	"cyclosa/internal/queries"
)

// testLimiter builds an admission limiter for in-process daemons, failing
// the test on a config error.
func testLimiter(t *testing.T, qps float64, burst int) *accounting.Limiter {
	t.Helper()
	lim, err := accounting.NewLimiter(accounting.LimiterConfig{QPS: qps, Burst: burst})
	if err != nil {
		t.Fatal(err)
	}
	return lim
}

// startNode runs the daemon in-process and returns its address plus a stop
// func.
func startNode(t *testing.T, env *attestationEnv, cfg nodeConfig) string {
	t.Helper()
	ready := make(chan string, 1)
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	go func() { errCh <- runNode(env, cfg, ready, stop) }()
	var stopOnce bool
	t.Cleanup(func() {
		if !stopOnce {
			close(stop)
			<-errCh
		}
	})
	select {
	case addr := <-ready:
		return addr
	case err := <-errCh:
		stopOnce = true
		t.Fatalf("daemon failed to start: %v", err)
		return ""
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
		return ""
	}
}

// clientCfg is the client's node configuration for in-process runs: an
// ephemeral port, joined through seedAddr, gossiping fast.
func clientCfg(id, seedAddr string, seed int64) nodeConfig {
	return nodeConfig{listen: "127.0.0.1:0", id: id, seed: seed, bootstrap: []string{seedAddr}, gossipEvery: 20 * time.Millisecond}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	out := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	ferr := fn()
	os.Stdout = orig
	w.Close()
	return <-out, ferr
}

// TestDemoMode runs the full TCP path — three daemons, the client's node,
// gossip discovery, attested pairs — and sees the paper's protocol at work:
// the first sample query is sensitive, so it leaves with k > 0 fakes.
func TestDemoMode(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-mode", "demo", "-seed", "3", "-gossip-interval", "20ms"}, nil, nil)
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	m := regexp.MustCompile(`client: k=(\d+) fakes, real query relayed by (\S+),`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("demo did not print the search's protection:\n%s", out)
	}
	if k, _ := strconv.Atoi(m[1]); k < 1 || k > demoDaemons-1 {
		t.Fatalf("demo search left with k=%d fakes, want 1..%d", k, demoDaemons-1)
	}
	if !strings.HasPrefix(m[2], "cyclosa-node-") {
		t.Fatalf("real query relayed by %q, want one of the daemons", m[2])
	}
	if !strings.Contains(out, "demo: success") {
		t.Fatalf("demo did not report success:\n%s", out)
	}
}

// TestDemoModeMultiplexed runs the demo with many concurrent searches.
func TestDemoModeMultiplexed(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return run([]string{"-mode", "demo", "-seed", "3", "-n", "40", "-concurrency", "8", "-gossip-interval", "20ms"}, nil, nil)
	})
	if err != nil || !strings.Contains(out, "40 answered") {
		t.Fatalf("err %v, output:\n%s", err, out)
	}
}

// TestUnknownMode: a bad -mode must fail (non-zero exit in main) and name
// the valid ones.
func TestUnknownMode(t *testing.T) {
	err := run([]string{"-mode", "nope"}, nil, nil)
	if err == nil {
		t.Fatal("unknown mode should fail")
	}
	if !strings.Contains(err.Error(), "unknown mode") || !strings.Contains(err.Error(), "node|client|view|demo") {
		t.Fatalf("error should carry usage hint, got: %v", err)
	}
}

// TestClientManyQueriesOneSession runs -n searches, -concurrency in flight,
// from one client node against an in-process daemon: with one relay known
// every search is one forward, all over the pair's one attested session.
func TestClientManyQueriesOneSession(t *testing.T) {
	env := newAttestationEnv("test-secret")
	addr := startNode(t, env, nodeConfig{listen: "127.0.0.1:0", id: "test-node", seed: 3})
	if err := runClient(env, clientCfg("client", addr, 3), "", 60, 6); err != nil {
		t.Fatal(err)
	}
}

// TestClientRidesOutThrottling drives -n well above the daemon's burst:
// the searches whose forward was shed must be repeated until every one is
// answered, instead of the first throttle failing the run.
func TestClientRidesOutThrottling(t *testing.T) {
	env := newAttestationEnv("test-secret")
	lim := testLimiter(t, 200, 5)
	addr := startNode(t, env, nodeConfig{listen: "127.0.0.1:0", id: "throttling-node", seed: 3, admission: lim})
	if err := runClient(env, clientCfg("client", addr, 3), "", 40, 8); err != nil {
		t.Fatal(err)
	}
	if st := lim.Stats(); st.Admitted != 40 || st.Throttled == 0 {
		t.Fatalf("limiter stats = %+v, want 40 admitted and some throttled (burst 5 never exceeded?)", st)
	}
}

// TestMismatchedIASSecret verifies that a client provisioned with a
// different attestation secret is rejected by the daemon: it never gets a
// relay, and the daemon serves it nothing.
func TestMismatchedIASSecret(t *testing.T) {
	envNode := newAttestationEnv("secret-a")
	envClient := newAttestationEnv("secret-b")
	lim := testLimiter(t, 200, 50)
	addr := startNode(t, envNode, nodeConfig{listen: "127.0.0.1:0", id: "node-a", seed: 1, admission: lim})
	err := runClient(envClient, clientCfg("client", addr, 1), "query", 1, 1)
	if err == nil || !strings.Contains(err.Error(), "failed attestation") {
		t.Fatalf("err = %v, want the client left without a relay by the failed attestation", err)
	}
	if st := lim.Stats(); st.Admitted != 0 {
		t.Fatalf("daemon admitted %d forwards from a client it refused to attest", st.Admitted)
	}
}

// TestQueryLeavesThroughDistinctDaemons is ROADMAP item 1's acceptance, on
// what the binary runs: one sensitive user query leaves the client through
// k+1 distinct daemons — the real query through one, k fakes drawn from the
// client's table through the others, never through the client itself — and
// comes back as the engine's page for it.
func TestQueryLeavesThroughDistinctDaemons(t *testing.T) {
	const seed = 3
	env := newAttestationEnv("fanout-secret")
	logf := func(string, ...any) {}
	daemons := make([]*host, 4)
	for i := range daemons {
		cfg := nodeConfig{listen: "127.0.0.1:0", id: fmt.Sprintf("daemon-%d", i), seed: seed, gossipEvery: 20 * time.Millisecond}
		if i > 0 {
			cfg.bootstrap = []string{daemons[0].addr.String()}
		}
		h, err := startHost(env.relay, env.verifier, cfg, logf)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { h.drain() })
		if err := h.join(cfg.bootstrap); err != nil {
			t.Fatal(err)
		}
		daemons[i] = h
	}
	c, err := startHost(env.client, env.verifier, clientCfg("the-user", daemons[0].addr.String(), seed), logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.drain() })
	if err := c.join([]string{daemons[0].addr.String()}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for relays, _ := awaitRelays(c.membership); relays < len(daemons); relays, _ = awaitRelays(c.membership) {
		if time.Now().After(deadline) {
			t.Fatalf("client attested %d of %d daemons", relays, len(daemons))
		}
		time.Sleep(20 * time.Millisecond)
	}

	uni := queries.NewUniverse(queries.UniverseConfig{Seed: seed})
	query := sampleQueries(uni)[0] // a sensitive topic's terms: k = kmax, capped by the relays known
	res, err := c.node.Search(query, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 1 || res.K > len(daemons)-1 {
		t.Fatalf("k = %d, want 1..%d", res.K, len(daemons)-1)
	}
	if !res.Assessment.SemanticSensitive {
		t.Fatalf("assessment %+v: the sample query should be sensitive", res.Assessment)
	}

	table := make(map[string]bool)
	for _, q := range queries.NewTrendingSource(uni, seed).Batch(tableBootstrap) {
		table[q] = true
	}
	var real, fakes int
	for _, d := range daemons {
		obs := d.engine.Observations()
		switch {
		case len(obs) > 1:
			t.Fatalf("%s saw %d queries of one search, want its relays distinct", d.id, len(obs))
		case len(obs) == 0:
			continue
		case obs[0].Source != d.id:
			t.Fatalf("%s submitted a query as %q: the engine must see the relay, not the user", d.id, obs[0].Source)
		case obs[0].Query == query:
			real++
			if res.RealRelay != d.id {
				t.Fatalf("real query seen at %s, search says %s relayed it", d.id, res.RealRelay)
			}
			want := d.engine.DirectResults(query)
			if len(res.Results) != len(want) || len(want) == 0 || res.Results[0].DocID != want[0].DocID {
				t.Fatalf("result page %v, want the engine's %v", res.Results, want)
			}
		case table[obs[0].Query]:
			fakes++
		default:
			t.Fatalf("%s saw %q: neither the user's query nor a string of the client's table", d.id, obs[0].Query)
		}
	}
	if real != 1 || fakes != res.K {
		t.Fatalf("engines saw %d real and %d fake queries, want 1 and k = %d", real, fakes, res.K)
	}
	if n := len(c.engine.Observations()); n != 0 || res.RealRelay == c.id {
		t.Fatalf("the client's own engine saw %d queries (real relay %q): a node must not relay for itself", n, res.RealRelay)
	}
	if st := c.node.Stats(); st.FakesSent != uint64(res.K) || st.Blacklisted != 0 {
		t.Fatalf("client stats %+v, want %d fakes sent and nobody blacklisted", st, res.K)
	}
	// A blacklisting by a search is ledger evidence that gossips; none here.
	if v := c.ledger.Values(); len(v) != 0 {
		t.Fatalf("client ledger %v after a clean search", v)
	}
}

// TestBootstrapDiscovery: two daemons started with only -bootstrap <seed>
// discover each other through gossip, attest each other's enclaves into
// their directories, and both relay a client's searches — no static peer
// list.
func TestBootstrapDiscovery(t *testing.T) {
	env := newAttestationEnv("peer-secret")
	addrA := startNode(t, env, nodeConfig{listen: "127.0.0.1:0", id: "node-a", seed: 1, gossipEvery: 20 * time.Millisecond,
		admission: testLimiter(t, 200, 50)})
	addrB := startNode(t, env, nodeConfig{listen: "127.0.0.1:0", id: "node-b", seed: 1,
		bootstrap: []string{addrA}, gossipEvery: 20 * time.Millisecond})

	// Each daemon's view must show the other, attested, with a measurement.
	attestedPeer := func(addr, want string) bool {
		snap, err := nettrans.FetchView(addr, nettrans.PoolConfig{DialTimeout: time.Second, RequestTimeout: 2 * time.Second})
		if err != nil {
			return false
		}
		for _, p := range snap.Peers {
			if p.ID == want && p.Attested && p.Measurement != "" {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if attestedPeer(addrA, "node-b") && attestedPeer(addrB, "node-a") {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if !attestedPeer(addrA, "node-b") || !attestedPeer(addrB, "node-a") {
		t.Fatal("daemons never discovered and attested each other through gossip")
	}

	// Both daemons admit a client into the overlay after the join, and it
	// searches through them.
	if err := runClient(env, clientCfg("client-1", addrA, 1), "travel plans", 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := runClient(env, clientCfg("client-2", addrB, 1), "travel plans", 4, 2); err != nil {
		t.Fatal(err)
	}

	// The view mode renders the snapshot.
	var buf strings.Builder
	if err := runView(&buf, addrA); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "node-b") || !strings.Contains(out, "ATTESTED") {
		t.Fatalf("view rendering missing peer table:\n%s", out)
	}
	// The daemon's engine runs behind the resilience stack, so the view
	// must carry its counters (the served query above is in there).
	if !strings.Contains(out, "backend:") || !strings.Contains(out, "breaker:") {
		t.Fatalf("view rendering missing backend stack state:\n%s", out)
	}
	// node-a runs with an admission limiter, so the view must render its
	// counters (the served query above was admitted through it).
	if !strings.Contains(out, "admission:") || !strings.Contains(out, "admitted") {
		t.Fatalf("view rendering missing admission counters:\n%s", out)
	}
}

// TestBadEngineFlags: out-of-range resilience settings must fail loudly
// (non-zero exit via run's error) instead of silently defaulting.
func TestBadEngineFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero timeout", []string{"-mode", "demo", "-engine-timeout", "0s"}, "engine timeout"},
		{"negative timeout", []string{"-mode", "demo", "-engine-timeout", "-1s"}, "engine timeout"},
		{"negative retries", []string{"-mode", "demo", "-engine-retries", "-1"}, "engine retries"},
		{"threshold zero", []string{"-mode", "demo", "-engine-breaker-threshold", "0"}, "breaker threshold"},
		{"threshold above one", []string{"-mode", "demo", "-engine-breaker-threshold", "1.5"}, "breaker threshold"},
		{"zero inflight", []string{"-mode", "demo", "-engine-max-inflight", "0"}, "max-inflight"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, nil, nil)
			if err == nil {
				t.Fatalf("args %v accepted, want validation error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the bad flag (want %q)", err, tc.want)
			}
		})
	}
}

// TestEngineFlagsAccepted: in-range settings reach the daemon (the demo
// round trip still works with a tightened policy).
func TestEngineFlagsAccepted(t *testing.T) {
	args := []string{"-mode", "demo", "-seed", "3",
		"-engine-timeout", "250ms", "-engine-retries", "0",
		"-engine-breaker-threshold", "0.9", "-engine-max-inflight", "2"}
	if err := run(args, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBadAdmissionFlags: a non-positive quota must fail loudly at start-up
// (the same convention as the engine flags) — a daemon silently running
// unthrottled or refusing every client would be an operator trap.
func TestBadAdmissionFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero qps", []string{"-mode", "demo", "-client-qps", "0"}, "limiter qps"},
		{"negative qps", []string{"-mode", "demo", "-client-qps", "-5"}, "limiter qps"},
		{"zero burst", []string{"-mode", "demo", "-client-burst", "0"}, "limiter burst"},
		{"negative burst", []string{"-mode", "demo", "-client-burst", "-1"}, "limiter burst"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, nil, nil)
			if err == nil {
				t.Fatalf("args %v accepted, want validation error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the bad flag (want %q)", err, tc.want)
			}
		})
	}
}

// TestAdmissionFlagsAccepted: an in-range quota reaches the daemon and the
// demo round trip still succeeds — a burst of 1 admits the single query.
func TestAdmissionFlagsAccepted(t *testing.T) {
	args := []string{"-mode", "demo", "-seed", "3",
		"-client-qps", "100", "-client-burst", "1"}
	if err := run(args, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// httpGet fetches an ops endpoint and returns status plus body, failing the
// test on transport errors.
func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestOpsSurface drives the whole telemetry plane through a real daemon:
// probes, the Prometheus exposition with families from every instrumented
// layer, the JSON view, and the query trace ring — all over the HTTP ops
// listener, no attested TCP hop.
func TestOpsSurface(t *testing.T) {
	env := newAttestationEnv("ops-secret")
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := startNode(t, env, nodeConfig{
		listen:    "127.0.0.1:0",
		id:        "ops-node",
		seed:      3,
		admission: testLimiter(t, 200, 50),
		opsLn:     opsLn,
	})
	// Traffic first, so the hot-path counters and the trace ring have
	// something to show.
	if err := runClient(env, clientCfg("client", addr, 3), "travel plans", 8, 2); err != nil {
		t.Fatal(err)
	}
	base := "http://" + opsLn.Addr().String()

	if code, body := httpGet(t, base+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q, want 200 ok", code, body)
	}
	if code, body := httpGet(t, base+"/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Fatalf("/readyz = %d %q, want 200 ready", code, body)
	}

	_, metrics := httpGet(t, base+"/metrics")
	for _, fam := range []string{
		// nettrans frame path (process-wide hot-path registry)
		"cyclosa_nettrans_frames_read_total",
		"cyclosa_nettrans_frames_written_total",
		// the protocol's forward stages: client side and, as "engine", the
		// relay side of a hop
		"cyclosa_core_forward_stage_seconds_bucket",
		"cyclosa_core_forward_outcomes_total",
		// backend resilience stack (instance registry, scrape-time sampled)
		"cyclosa_backend_calls_total",
		"cyclosa_backend_retry_budget_tokens",
		// per-client admission
		"cyclosa_admission_admitted_total",
		// gossip plane
		"cyclosa_gossip_view_size",
		"cyclosa_gossip_rounds_total",
		// misbehavior ledger
		"cyclosa_misbehavior_subjects",
		// group-commit write path
		"cyclosa_server_write_frames_total",
		"cyclosa_server_frames_per_flush",
	} {
		if !strings.Contains(metrics, fam) {
			t.Errorf("/metrics missing family %s", fam)
		}
	}
	// The served queries above must be visible as nonzero backend calls.
	if strings.Contains(metrics, "cyclosa_backend_calls_total 0\n") {
		t.Error("backend call counter still zero after served queries")
	}

	if code, body := httpGet(t, base+"/view"); code != http.StatusOK ||
		!strings.Contains(body, `"self"`) || !strings.Contains(body, "ops-node") {
		t.Fatalf("/view = %d, body missing snapshot fields:\n%s", code, body)
	}

	if code, body := httpGet(t, base+"/debug/traces"); code != http.StatusOK ||
		!strings.Contains(body, `"forward"`) {
		t.Fatalf("/debug/traces = %d, want forward-op traces after searches:\n%s", code, body)
	}
}

// TestOpsAddrValidation: an unusable -ops-addr must exit non-zero at
// start-up (the engine/admission flag convention), and the flag is ignored
// by modes without a daemon.
func TestOpsAddrValidation(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"occupied port", []string{"-mode", "node", "-ops-addr", busy.Addr().String()}, "ops-addr"},
		{"malformed address", []string{"-mode", "node", "-ops-addr", "not an address"}, "ops-addr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, nil, nil)
			if err == nil {
				t.Fatalf("args %v accepted, want bind error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the bad flag (want %q)", err, tc.want)
			}
		})
	}

	// View mode never binds the ops listener: an occupied -ops-addr must
	// surface the dial failure, not a bind error.
	err = run([]string{"-mode", "view", "-connect", "127.0.0.1:1", "-ops-addr", busy.Addr().String()}, nil, nil)
	if err == nil || strings.Contains(err.Error(), "ops-addr") {
		t.Fatalf("view mode should ignore -ops-addr, got: %v", err)
	}
}

// TestOpsShutdownAfterDrain pins the drain order: when the goaway drain of
// the frame listener completes ("frame-drained" stage), the ops listener is
// still serving — /healthz answers 200 and /readyz already reports 503 (the
// readiness flip happens first, so balancers stop routing before the drain).
// Only after runNode returns is the ops socket closed.
func TestOpsShutdownAfterDrain(t *testing.T) {
	env := newAttestationEnv("drain-secret")
	opsLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + opsLn.Addr().String()

	var healthAt, readyAt int
	cfg := nodeConfig{
		listen: "127.0.0.1:0",
		id:     "drain-node",
		seed:   1,
		opsLn:  opsLn,
		drainHook: func(stage string) {
			if stage != "frame-drained" {
				return
			}
			healthAt, _ = httpGet(t, base+"/healthz")
			readyAt, _ = httpGet(t, base+"/readyz")
		},
	}
	ready := make(chan string, 1)
	stop := make(chan struct{})
	errCh := make(chan error, 1)
	go func() { errCh <- runNode(env, cfg, ready, stop) }()
	select {
	case <-ready:
	case err := <-errCh:
		t.Fatalf("daemon failed to start: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not start")
	}
	close(stop)
	if err := <-errCh; err != nil {
		t.Fatalf("drain returned error: %v", err)
	}
	if healthAt != http.StatusOK {
		t.Errorf("/healthz during frame-drained stage = %d, want 200 (ops must outlive the frame drain)", healthAt)
	}
	if readyAt != http.StatusServiceUnavailable {
		t.Errorf("/readyz during frame-drained stage = %d, want 503 (readiness flips before the drain)", readyAt)
	}
	// After runNode returns the ops socket must be closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("ops listener still serving after runNode returned")
	}
}

// TestNoSeedReachable: a daemon whose every bootstrap seed is down must
// exit non-zero with a clear message, not serve an empty view.
func TestNoSeedReachable(t *testing.T) {
	env := newAttestationEnv("seedless")
	err := runNode(env, nodeConfig{
		listen:    "127.0.0.1:0",
		id:        "orphan",
		seed:      1,
		bootstrap: []string{"127.0.0.1:1"}, // nothing listens there
	}, nil, nil)
	if err == nil {
		t.Fatal("daemon served with no reachable seed")
	}
	if !errors.Is(err, nettrans.ErrNoSeed) && !strings.Contains(err.Error(), "no bootstrap seed reachable") {
		t.Fatalf("error should name the seed failure, got: %v", err)
	}
}
