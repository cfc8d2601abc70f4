package nettrans

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/backend"
	"cyclosa/internal/core"
	"cyclosa/internal/enclave"
	"cyclosa/internal/rps"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/securechan"
)

// hostedWorld is a deployment of separately hosted nodes in one test process:
// the attestation roots they share (the deterministic-platform stand-in for
// Intel provisioning) and the directory their conduits resolve through.
type hostedWorld struct {
	t        *testing.T
	ias      *enclave.IAS
	verifier *enclave.Verifier
	secret   []byte

	mu    sync.Mutex
	addrs map[string]string
}

func newHostedWorld(t *testing.T, secret string) *hostedWorld {
	ias := enclave.NewIAS()
	return &hostedWorld{
		t:        t,
		ias:      ias,
		verifier: enclave.NewVerifier(ias, enclave.MeasureCode(core.EnclaveName, core.EnclaveVersion)),
		secret:   []byte(secret),
		addrs:    make(map[string]string),
	}
}

func (w *hostedWorld) resolve(id string) (string, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	a, ok := w.addrs[id]
	return a, ok
}

func (w *hostedWorld) setAddr(id, addr string) {
	w.mu.Lock()
	w.addrs[id] = addr
	w.mu.Unlock()
}

// hostedNode is what one process of the deployment holds: the node, the
// overlay node it samples relays from, its own pool and conduit, and the
// server its peers reach it on.
type hostedNode struct {
	id    string
	node  *core.Node
	peers *rps.Node
	pool  *Pool
	srv   *Server
}

// hostedOpts are the per-node knobs of a test deployment; the zero value is
// an unthrottled node over flakyBackend with default pool timeouts.
type hostedOpts struct {
	backend   core.Backend
	admission *accounting.Limiter
	pool      PoolConfig
	overlay   rps.Config
	// wrapListener, when non-nil, gets between the server and its listener.
	wrapListener func(net.Listener) net.Listener
}

// host starts one node whose view is exactly peers (no gossip runs, so a
// search with no analyzer is one forward to a peer of the test's choosing).
func (w *hostedWorld) host(id string, peers []string, o hostedOpts) *hostedNode {
	w.t.Helper()
	if o.backend == nil {
		o.backend = flakyBackend{}
	}
	view := make([]rps.NodeID, len(peers))
	for i, p := range peers {
		view[i] = rps.NodeID(p)
	}
	o.pool.ID = id
	h := &hostedNode{id: id, peers: rps.NewNode(rps.NodeID(id), view, o.overlay), pool: NewPool(o.pool)}
	link := NewTCPConduit(ConduitConfig{Resolve: w.resolve, Pool: h.pool})
	platform := enclave.NewDeterministicPlatform("platform-"+id, w.secret, w.ias)
	var err error
	h.node, err = core.NewHostedNode(core.NodeOptions{ID: id, Seed: 7, RelayTimeout: 50 * time.Millisecond},
		platform, w.verifier, h.peers, o.backend, link)
	if err != nil {
		w.t.Fatal(err)
	}
	h.srv = NewServer(ServerConfig{ID: id, Handler: h.node.Local(), Admission: o.admission})
	if _, err := h.srv.Listen("127.0.0.1:0"); err != nil {
		w.t.Fatal(err)
	}
	if o.wrapListener != nil {
		h.srv.ln = o.wrapListener(h.srv.ln)
	}
	go h.srv.Serve() //nolint:errcheck // ends with the server's Close
	w.setAddr(id, h.srv.Addr().String())
	w.t.Cleanup(func() {
		h.pool.Close()
		h.srv.Close()
		// Close returns once the connections are closed; their goroutines
		// release the sessions they own a moment later. Wait for that, or a
		// late session close lands in the next test's countCloses.
		waitFor(w.t, "the closed server to release its sessions", func() bool {
			h.srv.mu.Lock()
			defer h.srv.mu.Unlock()
			return len(h.srv.conns) == 0 && len(h.srv.sessions) == 0
		})
	})
	return h
}

// search runs one protected search and fails the test on a protocol error.
func (h *hostedNode) search(t *testing.T, query string) *core.SearchResult {
	t.Helper()
	res, err := h.node.Search(query, time.Now())
	if err != nil {
		t.Fatalf("%s: search %q: %v", h.id, query, err)
	}
	return res
}

// wantUnavailable checks that a search through the client's only relay failed
// the way an unresponsive relay does: the timeout path (blacklisted, not
// charged with misbehaviour), which leaves the client without peers.
func (h *hostedNode) wantUnavailable(t *testing.T, relay string, err error) {
	t.Helper()
	if !errors.Is(err, core.ErrRelayFailed) || !errors.Is(err, core.ErrNoPeers) {
		t.Fatalf("err = %v, want the real query's path out of relays", err)
	}
	if st := h.node.Stats(); st.Blacklisted != 1 || st.Misbehaved != 0 || !h.peers.IsBlacklisted(rps.NodeID(relay)) {
		t.Fatalf("stats %+v, blacklisted=%v: want %s blacklisted as unavailable, not as misbehaving", st, h.peers.IsBlacklisted(rps.NodeID(relay)), relay)
	}
}

// countCloses installs a close observer for the test and returns its count.
func countCloses(t *testing.T) *atomic.Int64 {
	t.Helper()
	var closes atomic.Int64
	securechan.SetCloseObserver(func(*securechan.Session) { closes.Add(1) })
	t.Cleanup(func() { securechan.SetCloseObserver(nil) })
	return &closes
}

// TestServiceMultiplexedQueries drives many concurrent searches from ONE
// hosted node over three relays: the forwards multiplex, by stream ID, on one
// pooled connection per relay, while each pair's records stay strictly
// ordered.
func TestServiceMultiplexedQueries(t *testing.T) {
	w := newHostedWorld(t, "svc-secret")
	relays := []string{"relay-a", "relay-b", "relay-c"}
	for _, id := range relays {
		w.host(id, nil, hostedOpts{})
	}
	dialsBefore := mDialOK.Value()
	c := w.host("client", relays, hostedOpts{})

	const workers, perWorker = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	used := make([]map[string]int, workers)
	for wk := 0; wk < workers; wk++ {
		wk := wk
		used[wk] = make(map[string]int)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				res, err := c.node.Search(fmt.Sprintf("multiplexed %d %d", wk, i), time.Now())
				if err != nil {
					errs <- fmt.Errorf("worker %d search %d: %w", wk, i, err)
					return
				}
				if len(res.Results) != 1 || res.Results[0].Title != "t" {
					errs <- fmt.Errorf("worker %d search %d: page %v", wk, i, res.Results)
					return
				}
				used[wk][res.RealRelay]++
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := make(map[string]int)
	for _, u := range used {
		for relay, n := range u {
			total[relay] += n
		}
	}
	if len(total) != len(relays) {
		t.Fatalf("searches left through %v, want all of %v", total, relays)
	}
	if dials := mDialOK.Value() - dialsBefore; dials != uint64(len(relays)) {
		t.Fatalf("%d connections dialed for %d concurrent searches over %d relays, want one per relay", dials, workers*perWorker, len(relays))
	}
	if st := c.node.Stats(); st.Blacklisted != 0 || st.Misbehaved != 0 {
		t.Fatalf("client stats %+v, want a clean run", st)
	}
}

// TestServiceAttestationRejected: a client provisioned under different
// attestation roots is refused at the key exchange — ErrAttestRejected on its
// side, which its retry layer turns into a blacklisting — and no session
// exists on either side afterwards.
func TestServiceAttestationRejected(t *testing.T) {
	closes := countCloses(t)
	w := newHostedWorld(t, "secret-a")
	relay := w.host("relay", nil, hostedOpts{})

	other := newHostedWorld(t, "secret-b")
	other.setAddr("relay", relay.srv.Addr().String())
	rogue := other.host("rogue", []string{"relay"}, hostedOpts{})

	_, err := rogue.node.AttestRelay("relay", NewTCPConduit(ConduitConfig{Resolve: other.resolve, Pool: rogue.pool}))
	if !errors.Is(err, ErrAttestRejected) || !errors.Is(err, core.ErrRelayMisbehaved) {
		t.Fatalf("attest err = %v, want ErrAttestRejected classified as misbehaviour", err)
	}
	if _, err := rogue.node.Search("from the wrong roots", time.Now()); err == nil {
		t.Fatal("search through a relay that refused attestation succeeded")
	}
	if !rogue.peers.IsBlacklisted("relay") {
		t.Fatal("relay that rejected our attestation was not blacklisted")
	}
	if st := relay.node.Stats(); st.Relayed != 0 {
		t.Fatalf("relay served %d forwards for an unattested client", st.Relayed)
	}
	if n := closes.Load(); n != 0 {
		t.Fatalf("%d sessions closed, want none ever created", n)
	}
}

// TestServiceDroppedConnClosesBothSessionHalves is the close-observer
// regression: when the TCP connection a session was attested on drops, the
// relay closes its half at once; the client's half — useless from that
// moment — is closed by the very next forward, which is refused for want of
// a session, re-attests on a fresh connection with nonce counters from zero,
// and completes. Nobody is blacklisted for it.
func TestServiceDroppedConnClosesBothSessionHalves(t *testing.T) {
	closes := countCloses(t)
	var seqMu sync.Mutex
	firstSeq := make(map[*securechan.Session]uint64)
	securechan.SetNonceObserver(func(s *securechan.Session, send bool, seq uint64) {
		if !send {
			return
		}
		seqMu.Lock()
		if _, ok := firstSeq[s]; !ok {
			firstSeq[s] = seq
		}
		seqMu.Unlock()
	})
	defer securechan.SetNonceObserver(nil)

	w := newHostedWorld(t, "drop-secret")
	relay := w.host("relay", nil, hostedOpts{})
	c := w.host("client", []string{"relay"}, hostedOpts{})
	c.search(t, "first query before the drop")

	// Abruptly drop the TCP connection out from under the session — no
	// goodbye, exactly like a crashed peer or a cut link.
	addr := relay.srv.Addr().String()
	c.pool.mu.Lock()
	pc := c.pool.peers[addr].conn
	c.pool.mu.Unlock()
	pc.fc.c.Close()

	waitFor(t, "the relay to close its half", func() bool { return closes.Load() == 1 })

	c.search(t, "query after the drop")
	if n := closes.Load(); n != 2 {
		t.Fatalf("after the next forward: %d session halves closed, want both (2)", n)
	}
	if st := c.node.Stats(); st.Blacklisted != 0 || st.Misbehaved != 0 {
		t.Fatalf("client stats %+v: a dropped connection must not cost the relay its standing", st)
	}
	seqMu.Lock()
	defer seqMu.Unlock()
	if len(firstSeq) != 4 {
		t.Fatalf("%d sessions sent records, want 4 (two halves, twice)", len(firstSeq))
	}
	for s, seq := range firstSeq {
		if seq != 0 {
			t.Fatalf("session %p started sending at seq %d, want 0 (leaked nonce state)", s, seq)
		}
	}
}

// TestServiceServerCloseClosesSessions: the server's graceful teardown also
// releases every responder session half (not just abrupt drops), and the
// client's half goes with the next forward, which finds the relay gone.
func TestServiceServerCloseClosesSessions(t *testing.T) {
	closes := countCloses(t)
	w := newHostedWorld(t, "close-secret")
	relay := w.host("relay", nil, hostedOpts{})
	c := w.host("client", []string{"relay"}, hostedOpts{})
	c.search(t, "before close")

	relay.srv.Close()
	waitFor(t, "the relay to close its half", func() bool { return closes.Load() == 1 })

	_, err := c.node.Search("after close", time.Now())
	c.wantUnavailable(t, "relay", err)
	if n := closes.Load(); n != 2 {
		t.Fatalf("after server close: %d session halves closed, want 2", n)
	}
}

// TestServiceRejectsQueryBeforeAttestation: a data frame from a sender the
// relay holds no session with is refused with the no-session code on a
// connection that stays up, and a client in that position — its relay
// restarted, say — re-attests and is served, without blacklisting anyone.
func TestServiceRejectsQueryBeforeAttestation(t *testing.T) {
	w := newHostedWorld(t, "order-secret")
	relay := w.host("relay", nil, hostedOpts{})

	pool := NewPool(PoolConfig{ID: "rogue", RequestTimeout: 2 * time.Second})
	defer pool.Close()
	for i := 0; i < 2; i++ { // twice: the refusal did not cost the connection
		meta := appendDataMeta(nil, 1, "rogue", "relay", len("not even encrypted"))
		h, buf, err := pool.RoundTrip(relay.srv.Addr().String(), frameData, meta, []byte("not even encrypted"))
		if err != nil {
			t.Fatalf("round trip %d: %v", i, err)
		}
		code, _, derr := decodeErrPayload(*buf)
		putFrame(buf)
		if h.typ != frameErr || derr != nil || code != errCodeNoSession {
			t.Fatalf("unattested data frame answered with type %d code %d (%v), want a no-session err frame", h.typ, code, derr)
		}
	}

	c := w.host("client", []string{"relay"}, hostedOpts{})
	c.search(t, "attested and served")
	relay.node.Local().(sessionHost).DropSession("client", "relay") // the relay forgets us
	c.search(t, "served again after re-attesting")
	if st := c.node.Stats(); st.Blacklisted != 0 || st.Misbehaved != 0 {
		t.Fatalf("client stats %+v: a lost session must not blacklist the relay", st)
	}
	if c.peers.IsBlacklisted("relay") {
		t.Fatal("relay blacklisted for losing a session")
	}
}

// flakyBackend fails queries containing "refuse" and stalls on "stall".
type flakyBackend struct{ stall time.Duration }

func (b flakyBackend) Search(_, query string, _ time.Time) ([]searchengine.Result, error) {
	if strings.Contains(query, "refuse") {
		return nil, searchengine.ErrRateLimited
	}
	if strings.Contains(query, "stall") && b.stall > 0 {
		time.Sleep(b.stall)
	}
	return []searchengine.Result{{Title: "t", URL: "https://x"}}, nil
}

// TestServiceEngineRefusalSurfacesCleanly: a backend refusal crosses TCP as
// SearchResult.EngineError — the transport worked, the engine said no — and
// the same session keeps serving.
func TestServiceEngineRefusalSurfacesCleanly(t *testing.T) {
	closes := countCloses(t)
	w := newHostedWorld(t, "flaky")
	w.host("relay", nil, hostedOpts{})
	c := w.host("client", []string{"relay"}, hostedOpts{})

	res := c.search(t, "please refuse this")
	if res.EngineError == nil || !strings.Contains(res.EngineError.Error(), searchengine.ErrRateLimited.Error()) {
		t.Fatalf("engine error = %v, want the engine's refusal", res.EngineError)
	}
	if res = c.search(t, "a good query"); res.EngineError != nil || len(res.Results) != 1 {
		t.Fatalf("session did not survive the refusal: %+v", res)
	}
	if st := c.node.Stats(); st.Blacklisted != 0 || st.EngineFailed != 1 || closes.Load() != 0 {
		t.Fatalf("client stats %+v, %d sessions closed: an engine refusal is nobody's misbehaviour", st, closes.Load())
	}
}

// TestServiceEngineClassSurvivesWire: when the relay's backend is the
// resilience stack, the typed failure class (here a watchdog timeout)
// travels the wire inside the sealed response and the client recovers it —
// callers can errors.Is the backend taxonomy sentinel.
func TestServiceEngineClassSurvivesWire(t *testing.T) {
	w := newHostedWorld(t, "stack")
	stack := backend.NewStack(flakyBackend{stall: 300 * time.Millisecond}, backend.Policy{
		Timeout:    30 * time.Millisecond,
		MaxRetries: -1, // clamped to 0: the timeout must surface, not retry
	})
	w.host("relay", nil, hostedOpts{backend: stack})
	c := w.host("client", []string{"relay"}, hostedOpts{})

	res := c.search(t, "stall me")
	if !errors.Is(res.EngineError, backend.ErrEngineTimeout) {
		t.Fatalf("engine error = %v lost the taxonomy class, want backend.ErrEngineTimeout", res.EngineError)
	}
}

// TestServiceQueryTimeout: a relay whose engine stalls past the request
// timeout is unavailable to the forward that waited — and only to that one:
// the late answer is dropped and the relay serves a fresh client.
func TestServiceQueryTimeout(t *testing.T) {
	w := newHostedWorld(t, "timeout")
	w.host("relay", nil, hostedOpts{backend: flakyBackend{stall: 400 * time.Millisecond}})
	c := w.host("client", []string{"relay"}, hostedOpts{pool: PoolConfig{RequestTimeout: 60 * time.Millisecond}})

	start := time.Now()
	_, err := c.node.Search("stall here", time.Now())
	c.wantUnavailable(t, "relay", err)
	if d := time.Since(start); d < 60*time.Millisecond || d > 300*time.Millisecond {
		t.Fatalf("search failed after %v, want the 60ms request timeout", d)
	}
	time.Sleep(500 * time.Millisecond) // the late answer arrives and is dropped
	c2 := w.host("client-2", []string{"relay"}, hostedOpts{})
	c2.search(t, "a good query")
}

// TestServiceStalledQueryDoesNotBlockOthers: one pair's exchange waits out a
// stalled engine call — and times out as unavailability — while another
// client's forwards to the same relay are answered, or refused by the
// engine, each on its own pair: the relay serves exchanges concurrently and
// a pair's critical section covers that pair only.
func TestServiceStalledQueryDoesNotBlockOthers(t *testing.T) {
	w := newHostedWorld(t, "stalled")
	w.host("slow", nil, hostedOpts{backend: flakyBackend{stall: 300 * time.Millisecond}})
	slowClient := w.host("client", []string{"slow"}, hostedOpts{pool: PoolConfig{RequestTimeout: 80 * time.Millisecond}})
	fastClient := w.host("client-fast", []string{"slow"}, hostedOpts{})
	fastClient.search(t, "attest before the clock starts")

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := slowClient.node.Search("stall this one", time.Now()); !errors.Is(err, core.ErrNoPeers) || !slowClient.peers.IsBlacklisted("slow") {
			errCh <- fmt.Errorf("stalled search: err = %v, want the stalled relay timed out and blacklisted", err)
		}
	}()
	start := time.Now()
	for i := 1; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := fmt.Sprintf("fast %d", i)
			if i%4 == 3 {
				q = fmt.Sprintf("refuse %d", i)
			}
			res, err := fastClient.node.Search(q, time.Now())
			switch {
			case err != nil:
				errCh <- fmt.Errorf("search %d: %w", i, err)
			case i%4 == 3 && res.EngineError == nil:
				errCh <- fmt.Errorf("search %d: engine refusal lost", i)
			case i%4 != 3 && (len(res.Results) != 1 || res.Results[0].Title != "t"):
				errCh <- fmt.Errorf("search %d: page %v", i, res.Results)
			}
			if d := time.Since(start); d > 70*time.Millisecond {
				errCh <- fmt.Errorf("search %d took %v: it waited behind the stalled pair", i, d)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestServiceSessionOutlivesDialTimeout is the stale-deadline regression:
// the dial/hello phase arms an absolute read deadline, and net.Conn
// deadlines persist until changed — a session idle past DialTimeout used to
// die of the leftover timeout. Both ends must survive an idle gap longer
// than every handshake deadline, on the session they had.
func TestServiceSessionOutlivesDialTimeout(t *testing.T) {
	closes := countCloses(t)
	w := newHostedWorld(t, "idle")
	w.host("relay", nil, hostedOpts{})
	c := w.host("client", []string{"relay"}, hostedOpts{pool: PoolConfig{DialTimeout: 300 * time.Millisecond}})
	c.search(t, "before the idle gap")
	time.Sleep(900 * time.Millisecond) // well past DialTimeout
	c.search(t, "after the idle gap")
	if n := closes.Load(); n != 0 {
		t.Fatalf("%d sessions closed across the idle gap: the pair died of a stale dial deadline", n)
	}
}

// TestServiceOversizeQueryRejectedClientSide: the query bound is enforced
// before anything is sealed or sent.
func TestServiceOversizeQueryRejectedClientSide(t *testing.T) {
	w := newHostedWorld(t, "oversize")
	relay := w.host("relay", nil, hostedOpts{})
	c := w.host("client", []string{"relay"}, hostedOpts{})
	c.search(t, "attest first")
	frames := c.pool.WriteStats().Frames

	if _, err := c.node.Search(strings.Repeat("q", 8<<10+1), time.Now()); !errors.Is(err, core.ErrWireOversize) {
		t.Fatalf("err = %v, want ErrWireOversize", err)
	}
	if got := c.pool.WriteStats().Frames; got != frames {
		t.Fatalf("%d frames written for an oversize query, want none", got-frames)
	}
	if st := relay.node.Stats(); st.Relayed != 1 {
		t.Fatalf("relay saw %d forwards, want only the first", st.Relayed)
	}
}

// TestUnattestedPeerNeverBlacklisted: a peer that is in the view but that
// the directory cannot resolve yet (its attestation is still in flight) is
// skipped like a self-sample. Blacklisting it would be wrong twice over — it
// did nothing, and every blacklisting becomes ledger evidence that gossips.
func TestUnattestedPeerNeverBlacklisted(t *testing.T) {
	w := newHostedWorld(t, "unresolved")
	w.host("relay", nil, hostedOpts{})
	var blacklisted atomic.Int64 // the overlay hook the membership ledger hangs on
	c := w.host("client", []string{"pending-a", "relay", "pending-b"}, hostedOpts{
		overlay: rps.Config{OnBlacklist: func(rps.NodeID) { blacklisted.Add(1) }},
	})
	for i := 0; i < 20; i++ {
		if res := c.search(t, fmt.Sprintf("search %d", i)); res.RealRelay != "relay" {
			t.Fatalf("search %d relayed by %q, want the one attested relay", i, res.RealRelay)
		}
	}
	if st := c.node.Stats(); st.Blacklisted != 0 || blacklisted.Load() != 0 {
		t.Fatalf("stats %+v, %d blacklist hooks fired: an unresolvable peer must never be blacklisted", st, blacklisted.Load())
	}
	if c.peers.ViewSize() != 3 {
		t.Fatalf("view shrank to %d: pending peers must stay sampleable", c.peers.ViewSize())
	}
}

// TestSecondConnectionCannotReplaceSession: a session belongs to the
// connection it was attested on. A second connection that announces the same
// identity and attests — validly, with its own genuine enclave — is refused
// while the first lives, so it cannot swap the relay's half from under the
// client; nor may a connection attest in any name but its own.
func TestSecondConnectionCannotReplaceSession(t *testing.T) {
	closes := countCloses(t)
	w := newHostedWorld(t, "squat")
	w.host("relay", nil, hostedOpts{})
	c := w.host("client", []string{"relay"}, hostedOpts{})
	c.search(t, "the session being defended")

	// The impostor: same roots, same announced identity, own pool (so own
	// connection).
	imp := w.host("impostor", nil, hostedOpts{})
	squat := NewPool(PoolConfig{ID: "client"})
	defer squat.Close()
	via := NewTCPConduit(ConduitConfig{Resolve: w.resolve, Pool: squat})
	offer := handshakeOffer(t, w, "impostor-enclave")
	if _, err := via.Attest("client", "relay", offer); !errors.Is(err, core.ErrRelayUnresolved) || errors.Is(err, ErrAttestRejected) {
		t.Fatalf("second connection attesting a live session's identity: err = %v, want the skip-don't-blacklist refusal", err)
	}
	if _, err := NewTCPConduit(ConduitConfig{Resolve: w.resolve, Pool: imp.pool}).Attest("client", "relay", offer); !errors.Is(err, ErrAttestRejected) {
		t.Fatalf("connection attesting in another identity's name: err = %v, want ErrAttestRejected", err)
	}
	if n := closes.Load(); n != 0 {
		t.Fatalf("%d sessions closed by the refused attempts", n)
	}
	c.search(t, "the session still works")

	// Once the owner's connection is gone the identity is free again.
	c.pool.Close()
	waitFor(t, "the relay to drop the closed connection's session", func() bool { return closes.Load() == 1 })
	if _, err := via.Attest("client", "relay", offer); err != nil {
		t.Fatalf("attest after the owner left: %v", err)
	}
}

// handshakeOffer marshals a fresh, genuine offer from a new enclave.
func handshakeOffer(t *testing.T, w *hostedWorld, platformID string) []byte {
	t.Helper()
	plat := enclave.NewDeterministicPlatform(platformID, w.secret, w.ias)
	hs, err := securechan.NewHandshaker(plat.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion}), w.verifier)
	if err != nil {
		t.Fatal(err)
	}
	offer, err := hs.Offer()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := offer.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
