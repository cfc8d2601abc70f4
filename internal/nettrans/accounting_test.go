package nettrans

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/core"
	"cyclosa/internal/enclave"
	"cyclosa/internal/queries"
	"cyclosa/internal/rps"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/securechan"
)

// admissionClock is a hand-cranked clock so token refill is deterministic
// under test (no refill races with round trips).
type admissionClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *admissionClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *admissionClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// startThrottledDaemon is startTestDaemon with an admission limiter on a
// fake clock wired into the service edge.
func startThrottledDaemon(t *testing.T, qps float64, burst int) (*testDaemon, *accounting.Limiter, *admissionClock) {
	t.Helper()
	d := &testDaemon{ias: enclave.NewIAS(), secret: []byte("throttle-secret")}
	d.verifier = enclave.NewVerifier(d.ias, enclave.MeasureCode(core.EnclaveName, core.EnclaveVersion))

	relayPlat := enclave.NewDeterministicPlatform("relay-platform", d.secret, d.ias)
	encl := relayPlat.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion})
	hs, err := securechan.NewHandshaker(encl, d.verifier)
	if err != nil {
		t.Fatal(err)
	}
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 7})
	engine := searchengine.New(uni, searchengine.Config{Seed: 7})

	clk := &admissionClock{t: time.Unix(1_700_000_000, 0)}
	lim, err := accounting.NewLimiter(accounting.LimiterConfig{QPS: qps, Burst: burst, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	d.srv = NewServer(ServerConfig{
		ID:        "throttled-daemon",
		Service:   &RelayService{Handshaker: hs, Backend: engine, Source: "throttled-daemon"},
		Admission: lim,
	})
	if err := d.srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.srv.Close() })
	return d, lim, clk
}

// TestAdmissionThrottlesAndSessionSurvives proves the tentpole admission
// semantics end to end: over-quota queries fail with the typed
// ErrClientThrottled, the connection and attested session survive the shed
// (the skipped records advanced the receive counter), and once the bucket
// refills the same session serves queries again.
func TestAdmissionThrottlesAndSessionSurvives(t *testing.T) {
	d, lim, clk := startThrottledDaemon(t, 2, 2)
	c := d.dial(t)

	for i := 0; i < 2; i++ {
		if _, err := c.Query("throttle probe"); err != nil {
			t.Fatalf("query %d within burst: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		_, err := c.Query("over quota")
		if !errors.Is(err, accounting.ErrClientThrottled) {
			t.Fatalf("over-quota query %d: err = %v, want ErrClientThrottled", i, err)
		}
	}

	// One second at 2 qps refills two tokens; the same session — whose
	// receive counter the shed records advanced via Skip — must now decrypt
	// and answer normally.
	clk.Advance(time.Second)
	if _, err := c.Query("after refill"); err != nil {
		t.Fatalf("query after refill on same session: %v", err)
	}

	st := lim.Stats()
	if st.Admitted != 3 || st.Throttled != 3 {
		t.Fatalf("limiter stats = %+v, want 3 admitted / 3 throttled", st)
	}
}

// TestAdmissionShedsConcurrentQueries races 8 queries on one session into
// a burst of 3: exactly 3 are admitted and 5 shed with the typed error —
// each shed record skipped before decrypt while admitted ones decrypt around
// it, so the session's receive counter must stay in step — and after a
// refill the same session answers again.
func TestAdmissionShedsConcurrentQueries(t *testing.T) {
	d, lim, clk := startThrottledDaemon(t, 1, 3)
	c := d.dial(t)

	const total = 8
	var wg sync.WaitGroup
	var admitted, throttled int
	var mu sync.Mutex
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Query(fmt.Sprintf("concurrent %d", i))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, accounting.ErrClientThrottled):
				throttled++
			default:
				t.Errorf("query %d: unexpected error %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if admitted != 3 || throttled != 5 {
		t.Fatalf("admitted %d / throttled %d, want 3 / 5", admitted, throttled)
	}
	st := lim.Stats()
	if st.Admitted != 3 || st.Throttled != 5 {
		t.Fatalf("limiter stats = %+v, want 3 admitted / 5 throttled", st)
	}

	clk.Advance(time.Second)
	if _, err := c.Query("after refill"); err != nil {
		t.Fatalf("query after refill on same session: %v", err)
	}
}

// startAccountedDaemon is startMemberDaemon with a misbehavior ledger wired
// into the membership plane.
func startAccountedDaemon(t *testing.T, id string, bootstrap []string) (*Membership, *accounting.Ledger, string) {
	t.Helper()
	ledger := accounting.NewLedger(id)
	m := NewMembership(MembershipConfig{
		Self:       rps.Descriptor{ID: rps.NodeID(id)},
		Bootstrap:  bootstrap,
		Interval:   10 * time.Millisecond,
		Ledger:     ledger,
		PoolConfig: PoolConfig{ID: id, DialTimeout: time.Second, RequestTimeout: 2 * time.Second},
	})
	srv := NewServer(ServerConfig{ID: id, Membership: m})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck
	m.SetAdvertise(addr.String())
	t.Cleanup(func() {
		m.Stop()
		srv.Close()
	})
	return m, ledger, addr.String()
}

// TestLedgerGossipConvergesAndBlacklists: evidence recorded on one node
// reaches the other over the accounting frame exchange, and crossing the
// threshold blacklists the subject on BOTH nodes — the network-wide
// blacklist CYCLOSA §VI needs, with no coordinator.
func TestLedgerGossipConvergesAndBlacklists(t *testing.T) {
	a, _, addrA := startAccountedDaemon(t, "node-a", nil)
	b, ledgerB, _ := startAccountedDaemon(t, "node-b", []string{addrA})
	if err := b.Bootstrap(); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	a.Start()
	b.Start()

	// Node A observes misbehavior worth the default threshold (3).
	a.ReportMisbehavior("mallory", 3)

	waitFor(t, "b to merge mallory's count", func() bool {
		return ledgerB.Value("mallory") == 3
	})
	waitFor(t, "both nodes to blacklist mallory", func() bool {
		return a.Node().IsBlacklisted("mallory") && b.Node().IsBlacklisted("mallory")
	})

	// The merged counts surface in the introspection snapshot.
	snap := b.Snapshot()
	if snap.Misbehavior["mallory"] != 3 {
		t.Fatalf("snapshot misbehavior = %v, want mallory: 3", snap.Misbehavior)
	}
}

// TestLedgerExchangeMergesBothHalves pins the active exchange in
// isolation (no background gossip): one exchangeLedger call must merge
// B's evidence into A (the passive half) AND A's reply back into B (the
// active half). The reply rides a frameAccounting response through the
// connection pool's read loop — a dispatch table that once dropped the
// type and killed the connection, leaving convergence to limp along on
// the passive half alone.
func TestLedgerExchangeMergesBothHalves(t *testing.T) {
	_, ledgerA, addrA := startAccountedDaemon(t, "node-active-a", nil)
	b, ledgerB, _ := startAccountedDaemon(t, "node-active-b", nil)

	ledgerA.Inc("spammer", 2)
	ledgerB.Inc("flooder", 1)

	if err := b.exchangeLedger(addrA); err != nil {
		t.Fatalf("active ledger exchange: %v", err)
	}
	if v := ledgerA.Value("flooder"); v != 1 {
		t.Fatalf("passive half: A's count for flooder = %d, want 1", v)
	}
	if v := ledgerB.Value("spammer"); v != 2 {
		t.Fatalf("active half: B's count for spammer = %d, want 2 (reply frame dropped?)", v)
	}

	// The exchange is idempotent: replaying it changes nothing.
	if err := b.exchangeLedger(addrA); err != nil {
		t.Fatalf("replayed ledger exchange: %v", err)
	}
	if ledgerA.Value("flooder") != 1 || ledgerB.Value("spammer") != 2 {
		t.Fatal("replayed exchange double-applied evidence")
	}
}

// TestLedgerExchangeWithLedgerlessPeer: a peer without a ledger refuses
// the accounting frame with an error frame; the initiator surfaces the
// refusal as an error (logged and skipped by the gossip loop) without
// mutating its own ledger — the backward-additive mixed-fleet path.
func TestLedgerExchangeWithLedgerlessPeer(t *testing.T) {
	a, ledgerA, _ := startAccountedDaemon(t, "node-new", nil)
	_, addrBare := startMemberDaemon(t, "node-old", nil, nil)

	ledgerA.Inc("spammer", 2)
	err := a.exchangeLedger(addrBare)
	if err == nil {
		t.Fatal("exchange with ledger-less peer succeeded")
	}
	if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("err = %v, want the peer's rejection", err)
	}
	if v := ledgerA.Value("spammer"); v != 2 {
		t.Fatalf("rejected exchange mutated initiator ledger: %d", v)
	}
}

// TestReportMisbehaviorWithoutLedger: a membership without a ledger
// degrades ReportMisbehavior to an immediate local blacklist.
func TestReportMisbehaviorWithoutLedger(t *testing.T) {
	bare, _ := startMemberDaemon(t, "node-noledger", nil, nil)
	bare.ReportMisbehavior("cheat", 1)
	if !bare.Node().IsBlacklisted("cheat") {
		t.Fatal("ledger-less membership did not blacklist on report")
	}
}

// TestReportMisbehaviorAccumulates: sub-threshold reports accumulate
// without blacklisting; the report that crosses the threshold blacklists.
func TestReportMisbehaviorAccumulates(t *testing.T) {
	m, ledger, _ := startAccountedDaemon(t, "node-solo", nil)
	m.ReportMisbehavior("shady", 1)
	m.ReportMisbehavior("shady", 1)
	if m.Node().IsBlacklisted("shady") {
		t.Fatal("blacklisted below threshold")
	}
	m.ReportMisbehavior("shady", 1)
	if !m.Node().IsBlacklisted("shady") {
		t.Fatal("not blacklisted at threshold")
	}
	if v := ledger.Value("shady"); v != 3 {
		t.Fatalf("ledger value = %d, want 3", v)
	}
}

// TestBlacklistRecordsLedgerEvidence: a direct local blacklist writes
// threshold-weight evidence so the verdict gossips.
func TestBlacklistRecordsLedgerEvidence(t *testing.T) {
	m, ledger, _ := startAccountedDaemon(t, "node-bl", nil)
	m.Blacklist("forger")
	if v := ledger.Value("forger"); v != 3 {
		t.Fatalf("ledger value after Blacklist = %d, want threshold 3", v)
	}
	if !m.Node().IsBlacklisted("forger") {
		t.Fatal("not blacklisted")
	}
	// Idempotent: a second Blacklist does not double-charge.
	m.Blacklist("forger")
	if v := ledger.Value("forger"); v != 3 {
		t.Fatalf("ledger value after second Blacklist = %d, want 3", v)
	}
}

// TestHandleAccountingRejects covers the passive half's refusal paths:
// malformed payloads and blacklisted initiators are refused without
// mutating the ledger.
func TestHandleAccountingRejects(t *testing.T) {
	m, ledger, _ := startAccountedDaemon(t, "node-guard", nil)
	if _, err := m.HandleAccounting("peer-x", []byte{0xFF, 0x01, 0x02}, nil); err == nil {
		t.Fatal("malformed payload accepted")
	}
	if len(ledger.Subjects()) != 0 {
		t.Fatalf("rejected payload mutated ledger: %v", ledger.Subjects())
	}

	evil := accounting.NewLedger("evil")
	evil.Inc("victim", 100)
	m.Blacklist("evil")
	if _, err := m.HandleAccounting("evil", evil.AppendWire(nil), nil); !errors.Is(err, ErrGossipSuppressed) {
		t.Fatalf("blacklisted initiator: err = %v, want ErrGossipSuppressed", err)
	}
	if ledger.Value("victim") != 0 {
		t.Fatal("suppressed exchange still merged evidence")
	}

	// A membership without a ledger refuses the frame outright.
	bare, _ := startMemberDaemon(t, "node-bare", nil, nil)
	if _, err := bare.HandleAccounting("peer", evil.AppendWire(nil), nil); err == nil {
		t.Fatal("ledger-less membership accepted accounting frame")
	}
}
