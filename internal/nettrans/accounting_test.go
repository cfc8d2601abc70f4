package nettrans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/core"
	"cyclosa/internal/rps"
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

// throttledRelay hosts a relay whose admission limiter runs on a fake clock,
// and a client whose only peer it is.
func throttledRelay(t *testing.T, qps float64, burst int) (relay, client *hostedNode, lim *accounting.Limiter, clk *admissionClock) {
	t.Helper()
	clk = &admissionClock{t: time.Unix(1_700_000_000, 0)}
	lim, err := accounting.NewLimiter(accounting.LimiterConfig{QPS: qps, Burst: burst, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	w := newHostedWorld(t, "throttle-secret")
	relay = w.host("throttled-relay", nil, hostedOpts{admission: lim})
	client = w.host("client", []string{"throttled-relay"}, hostedOpts{})
	return relay, client, lim, clk
}

// TestAdmissionThrottlesAndSessionSurvives proves the admission semantics
// end to end on the data-frame edge: over-quota forwards fail with the typed
// core.ErrRelayThrottled and cost the relay no decrypt (no forward ecall),
// the pair survives the shed (the skipped records advanced the receive
// counter), nobody is blacklisted, and once the bucket refills the same
// session serves forwards again.
func TestAdmissionThrottlesAndSessionSurvives(t *testing.T) {
	closes := countCloses(t)
	relay, c, lim, clk := throttledRelay(t, 2, 2)

	for i := 0; i < 2; i++ {
		c.search(t, "throttle probe")
	}
	ecalls := relay.node.Enclave().Stats().ECalls
	for i := 0; i < 3; i++ {
		_, err := c.node.Search("over quota", time.Now())
		if !errors.Is(err, core.ErrRelayThrottled) {
			t.Fatalf("over-quota forward %d: err = %v, want ErrRelayThrottled", i, err)
		}
	}
	if got := relay.node.Enclave().Stats().ECalls; got != ecalls {
		t.Fatalf("%d ecalls for 3 shed forwards, want none: shedding must precede decrypt", got-ecalls)
	}

	// One second at 2 qps refills two tokens; the same session — whose
	// receive counter the shed records advanced via Skip — must now decrypt
	// and answer normally.
	clk.Advance(time.Second)
	c.search(t, "after refill")

	if st := lim.Stats(); st.Admitted != 3 || st.Throttled != 3 {
		t.Fatalf("limiter stats = %+v, want 3 admitted / 3 throttled", st)
	}
	if st := c.node.Stats(); st.Blacklisted != 0 || st.Misbehaved != 0 || closes.Load() != 0 {
		t.Fatalf("client stats %+v, %d sessions closed: throttling must break no pair and blacklist nobody", st, closes.Load())
	}
}

// TestAdmissionShedsConcurrentQueries races 8 forwards of one client into a
// burst of 3: exactly 3 are admitted and 5 shed with the typed error — each
// shed record skipped unopened while admitted ones decrypt around it, so the
// pair's counters must stay in step — and after a refill the same session
// answers again.
func TestAdmissionShedsConcurrentQueries(t *testing.T) {
	closes := countCloses(t)
	_, c, lim, clk := throttledRelay(t, 1, 3)

	const total = 8
	var wg sync.WaitGroup
	var admitted, throttled int
	var mu sync.Mutex
	for i := 0; i < total; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.node.Search(fmt.Sprintf("concurrent %d", i), time.Now())
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				admitted++
			case errors.Is(err, core.ErrRelayThrottled):
				throttled++
			default:
				t.Errorf("forward %d: unexpected error %v", i, err)
			}
		}()
	}
	wg.Wait()
	if admitted != 3 || throttled != 5 {
		t.Fatalf("admitted %d / throttled %d, want 3 / 5", admitted, throttled)
	}
	if st := lim.Stats(); st.Admitted != 3 || st.Throttled != 5 {
		t.Fatalf("limiter stats = %+v, want 3 admitted / 5 throttled", st)
	}

	clk.Advance(time.Second)
	c.search(t, "after refill")
	if st := c.node.Stats(); st.Blacklisted != 0 || st.Misbehaved != 0 || closes.Load() != 0 {
		t.Fatalf("client stats %+v, %d sessions closed: throttling must break no pair and blacklist nobody", st, closes.Load())
	}
}

// TestForeignConnectionCannotMoveSession: shedding skips a record's sequence
// number without checking any AEAD tag, so only the connection a session was
// attested on may have its frames admitted or shed. Connections that merely
// name the victim in their data frames — under their own hello identity or
// under the victim's — are refused without touching the victim's session or
// its tokens, and learn nothing about the sequence number it expects; the
// victim's next forward is served on the session it had.
func TestForeignConnectionCannotMoveSession(t *testing.T) {
	closes := countCloses(t)
	relay, c, lim, _ := throttledRelay(t, 1, 2)
	c.search(t, "the victim's first forward") // the relay now expects seq 1

	for _, hello := range []string{"mallory", "client"} {
		pool := NewPool(PoolConfig{ID: hello, RequestTimeout: 2 * time.Second})
		defer pool.Close()
		for i := 0; i < 4; i++ { // past the burst either way
			record := binary.BigEndian.AppendUint64(nil, 1)
			record = append(record, "no key, no tag"...)
			meta := appendDataMeta(nil, 1, "client", "throttled-relay", len(record))
			h, buf, err := pool.RoundTrip(relay.srv.Addr().String(), frameData, meta, record)
			if err != nil {
				t.Fatalf("%s frame %d: %v", hello, i, err)
			}
			code, msg, derr := decodeErrPayload(*buf)
			if h.typ != frameErr || derr != nil || code != errCodeNoSession || strings.Contains(string(msg), "seq") {
				t.Fatalf("%s frame %d answered with type %d code %d %q (%v), want a bare no-session err frame", hello, i, h.typ, code, msg, derr)
			}
			putFrame(buf)
		}
	}
	if st := lim.Stats(); st.Admitted != 1 || st.Throttled != 0 {
		t.Fatalf("limiter stats = %+v: foreign frames spent the victim's tokens or were shed against its session", st)
	}

	c.search(t, "the victim's next forward")
	if st := c.node.Stats(); st.Blacklisted != 0 || st.Misbehaved != 0 || closes.Load() != 0 {
		t.Fatalf("client stats %+v, %d sessions closed: the victim's pair was moved from another connection", st, closes.Load())
	}
	if st := relay.node.Stats(); st.Relayed != 2 {
		t.Fatalf("relay served %d forwards, want the victim's 2", st.Relayed)
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

	// Node A blacklists mallory, recording evidence worth the default
	// threshold (3).
	a.Blacklist("mallory")

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
	if len(ledger.Values()) != 0 {
		t.Fatalf("rejected payload mutated ledger: %v", ledger.Values())
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
