package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/nettrans"
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

// TestDemoMode runs the full TCP path: daemon, attested handshake, query,
// response.
func TestDemoMode(t *testing.T) {
	if err := run([]string{"-mode", "demo", "-seed", "3"}, nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDemoModeMultiplexed runs the demo with many queries over one session.
func TestDemoModeMultiplexed(t *testing.T) {
	if err := run([]string{"-mode", "demo", "-seed", "3", "-n", "40", "-concurrency", "8"}, nil, nil); err != nil {
		t.Fatal(err)
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

// TestClientManyQueriesOneSession exercises stream multiplexing against an
// in-process daemon: -n queries, -concurrency in flight, one attested
// session.
func TestClientManyQueriesOneSession(t *testing.T) {
	env := newAttestationEnv("test-secret")
	addr := startNode(t, env, nodeConfig{listen: "127.0.0.1:0", id: "test-node", seed: 3})
	if err := runClient(env, addr, "", 60, 6, 3); err != nil {
		t.Fatal(err)
	}
}

// TestClientRidesOutThrottling drives -n well above the daemon's burst:
// the shed queries must be retried on the same session until every one is
// answered, instead of the first throttle failing the run.
func TestClientRidesOutThrottling(t *testing.T) {
	env := newAttestationEnv("test-secret")
	lim := testLimiter(t, 200, 5)
	addr := startNode(t, env, nodeConfig{listen: "127.0.0.1:0", id: "throttling-node", seed: 3, admission: lim})
	if err := runClient(env, addr, "", 40, 8, 3); err != nil {
		t.Fatal(err)
	}
	if st := lim.Stats(); st.Admitted != 40 || st.Throttled == 0 {
		t.Fatalf("limiter stats = %+v, want 40 admitted and some throttled (burst 5 never exceeded?)", st)
	}
}

// TestMismatchedIASSecret verifies that a client provisioned with a
// different attestation secret is rejected by the daemon.
func TestMismatchedIASSecret(t *testing.T) {
	envNode := newAttestationEnv("secret-a")
	envClient := newAttestationEnv("secret-b")
	addr := startNode(t, envNode, nodeConfig{listen: "127.0.0.1:0", id: "node-a", seed: 1})
	if err := runClient(envClient, addr, "query", 1, 1, 1); err == nil {
		t.Fatal("mismatched attestation roots should fail the handshake")
	}
}

// TestBootstrapDiscovery: two daemons started with only -bootstrap <seed>
// discover each other through gossip, attest each other's enclaves into
// their directories, and both serve relayed queries — no static peer list.
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

	// Both daemons serve clients after the join.
	if err := runClient(env, addrA, "travel plans", 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := runClient(env, addrB, "travel plans", 1, 1, 1); err != nil {
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
	if err := runClient(env, addr, "travel plans", 8, 2, 3); err != nil {
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
		"cyclosa_nettrans_serve_stage_seconds_bucket",
		"cyclosa_nettrans_serve_queries_total",
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
		!strings.Contains(body, `"serve"`) {
		t.Fatalf("/debug/traces = %d, want serve-op traces after queries:\n%s", code, body)
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
