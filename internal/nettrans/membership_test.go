package nettrans

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cyclosa/internal/rps"
)

// startMemberDaemon spins up one gossip-serving daemon shell: a Membership
// and a Server wired together on a loopback listener.
func startMemberDaemon(t *testing.T, id string, bootstrap []string, attest AttestFunc) (*Membership, string) {
	t.Helper()
	m := NewMembership(MembershipConfig{
		Self:       rps.Descriptor{ID: rps.NodeID(id)},
		Bootstrap:  bootstrap,
		Interval:   10 * time.Millisecond,
		Attest:     attest,
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
	return m, addr.String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestGossipDiscovery: two daemons where B knows only A's address discover
// each other over real TCP gossip — no static peer list.
func TestGossipDiscovery(t *testing.T) {
	a, addrA := startMemberDaemon(t, "node-a", nil, nil)
	b, _ := startMemberDaemon(t, "node-b", []string{addrA}, nil)
	if err := b.Bootstrap(); err != nil {
		t.Fatalf("bootstrap: %v", err)
	}
	a.Start()
	b.Start()

	inView := func(m *Membership, id string) bool {
		for _, p := range m.Snapshot().Peers {
			if p.ID == id && p.Addr != "" {
				return true
			}
		}
		return false
	}
	waitFor(t, "b to learn a", func() bool { return inView(b, "node-a") })
	waitFor(t, "a to learn b", func() bool { return inView(a, "node-b") })

	// Both resolve each other through the directory (no Attest configured,
	// so any addressed peer resolves).
	if addr, ok := b.Resolve("node-a"); !ok || addr != addrA {
		t.Fatalf("b.Resolve(node-a) = %q, %v", addr, ok)
	}
	if _, ok := a.Resolve("node-b"); !ok {
		t.Fatal("a cannot resolve b")
	}
}

// TestGossipConvergenceManyNodes: 8 daemons from one seed converge to a
// mutually-resolvable overlay.
func TestGossipConvergenceManyNodes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-daemon convergence soak")
	}
	const n = 8
	ms := make([]*Membership, n)
	var seedAddr string
	for i := 0; i < n; i++ {
		var boot []string
		if i > 0 {
			boot = []string{seedAddr}
		}
		m, addr := startMemberDaemon(t, fmt.Sprintf("node-%02d", i), boot, nil)
		if i == 0 {
			seedAddr = addr
		}
		if err := m.Bootstrap(); err != nil {
			t.Fatalf("node %d bootstrap: %v", i, err)
		}
		m.Start()
		ms[i] = m
	}
	waitFor(t, "full discovery", func() bool {
		for _, m := range ms {
			if len(m.Snapshot().Peers) < n-1 {
				return false
			}
		}
		return true
	})
}

// TestBootstrapNoSeedReachable: with seeds configured and none answering,
// Bootstrap must fail with ErrNoSeed.
func TestBootstrapNoSeedReachable(t *testing.T) {
	m := NewMembership(MembershipConfig{
		Self:       rps.Descriptor{ID: "lonely"},
		Bootstrap:  []string{"127.0.0.1:1"},
		PoolConfig: PoolConfig{DialTimeout: 200 * time.Millisecond, RequestTimeout: 500 * time.Millisecond},
	})
	defer m.Stop()
	if err := m.Bootstrap(); !errors.Is(err, ErrNoSeed) {
		t.Fatalf("want ErrNoSeed, got %v", err)
	}
}

// TestAttestationDirectory: peers entering the view are re-attested; only
// attested peers resolve; a rejected peer is blacklisted and never
// re-admitted.
func TestAttestationDirectory(t *testing.T) {
	var mu sync.Mutex
	attested := map[string]int{}
	attest := func(id, addr string) (string, error) {
		mu.Lock()
		attested[id]++
		mu.Unlock()
		if id == "node-evil" {
			return "", fmt.Errorf("%w: measurement mismatch", ErrAttestRejected)
		}
		return "MEAS-" + id, nil
	}
	a, addrA := startMemberDaemon(t, "node-a", nil, attest)
	b, _ := startMemberDaemon(t, "node-b", []string{addrA}, attest)
	if err := b.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	a.Start()
	b.Start()

	waitFor(t, "b to attest a", func() bool {
		_, ok := b.Resolve("node-a")
		return ok
	})
	snap := b.Snapshot()
	found := false
	for _, p := range snap.Peers {
		if p.ID == "node-a" {
			found = true
			if !p.Attested || p.Measurement != "MEAS-node-a" {
				t.Fatalf("directory entry not attested: %+v", p)
			}
		}
	}
	if !found {
		t.Fatal("node-a missing from snapshot")
	}
	mu.Lock()
	if attested["node-a"] == 0 {
		mu.Unlock()
		t.Fatal("attest func never ran for node-a")
	}
	mu.Unlock()

	// An evil peer gossiped into the view is attested, rejected and
	// blacklisted; it must never resolve and never re-enter.
	evil, addrEvil := startMemberDaemon(t, "node-evil", []string{addrA}, nil)
	if err := evil.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	evil.Start()
	waitFor(t, "a to blacklist node-evil", func() bool {
		for _, id := range a.Snapshot().Blacklisted {
			if id == "node-evil" {
				return true
			}
		}
		return false
	})
	if _, ok := a.Resolve("node-evil"); ok {
		t.Fatal("blacklisted peer resolves")
	}
	// Push more gossip rounds; the blacklisted peer must stay out.
	for i := 0; i < 20; i++ {
		evil.Round()
		a.Round()
	}
	for _, p := range a.Snapshot().Peers {
		if p.ID == "node-evil" {
			t.Fatal("blacklisted peer re-entered the view")
		}
	}
	_ = addrEvil
}

// TestGossipSuppressedExchange: a blacklisted initiator's exchange is
// refused outright.
func TestGossipSuppressedExchange(t *testing.T) {
	a, addrA := startMemberDaemon(t, "node-a", nil, nil)
	a.Blacklist("node-bad")
	bad, _ := startMemberDaemon(t, "node-bad", []string{addrA}, nil)
	if err := bad.Bootstrap(); err == nil {
		t.Fatal("blacklisted peer's bootstrap should be refused")
	}
	for _, p := range a.Snapshot().Peers {
		if p.ID == "node-bad" {
			t.Fatal("suppressed peer entered the view anyway")
		}
	}
}

// TestFetchView: the introspection round trip returns the live snapshot.
func TestFetchView(t *testing.T) {
	a, addrA := startMemberDaemon(t, "node-a", nil, nil)
	b, _ := startMemberDaemon(t, "node-b", []string{addrA}, nil)
	if err := b.Bootstrap(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a to learn b", func() bool {
		_, ok := a.Resolve("node-b")
		return ok
	})
	snap, err := FetchView(addrA, PoolConfig{DialTimeout: time.Second, RequestTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Self != "node-a" {
		t.Fatalf("snapshot self = %q", snap.Self)
	}
	found := false
	for _, p := range snap.Peers {
		if p.ID == "node-b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot missing node-b: %+v", snap)
	}
	// A server without a membership plane refuses the probe.
	srv := NewServer(ServerConfig{ID: "bare"})
	bare, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve() //nolint:errcheck
	defer srv.Close()
	if _, err := FetchView(bare.String(), PoolConfig{DialTimeout: time.Second, RequestTimeout: 2 * time.Second}); err == nil {
		t.Fatal("bare server served a view")
	}
}

// TestMembershipStopIdempotent: Stop twice, and Round after Stop, are safe.
func TestMembershipStopIdempotent(t *testing.T) {
	m, _ := startMemberDaemon(t, "node-a", nil, nil)
	if m.Node() == nil || m.Node().ID() != "node-a" {
		t.Fatalf("overlay node accessor: %v", m.Node())
	}
	m.Start()
	m.Stop()
	m.Stop()
	m.Round() // no peers, no loop: must not panic
}
