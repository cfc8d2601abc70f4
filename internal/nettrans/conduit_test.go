package nettrans

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/simnet"
	"cyclosa/internal/transport"
)

// tcpStack is a loopback TCP data plane for tests: M servers all serving
// the network's direct conduit, one shared pool, and a resolver filled in
// once the node IDs are known.
type tcpStack struct {
	servers []*Server
	tcp     *TCPConduit

	mu    sync.Mutex
	addrs map[string]string
}

// start launches n servers over the given handler and builds the conduit.
func startTCPStack(t *testing.T, n int, handler transport.Conduit) *tcpStack {
	t.Helper()
	s := &tcpStack{addrs: make(map[string]string)}
	for i := 0; i < n; i++ {
		srv := NewServer(ServerConfig{
			ID:      fmt.Sprintf("srv-%d", i),
			Handler: handler,
		})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		s.servers = append(s.servers, srv)
	}
	s.tcp = NewTCPConduit(ConduitConfig{
		Resolve: func(id string) (string, bool) {
			s.mu.Lock()
			defer s.mu.Unlock()
			a, ok := s.addrs[id]
			return a, ok
		},
		PoolConfig: PoolConfig{ID: "test-pool", RequestTimeout: 10 * time.Second},
	})
	t.Cleanup(func() {
		s.tcp.Close()
		for _, srv := range s.servers {
			srv.Close()
		}
	})
	return s
}

// assign spreads the node IDs over the stack's servers round-robin, as if
// the overlay were hosted on len(servers) machines.
func (s *tcpStack) assign(ids []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, id := range ids {
		s.addrs[id] = s.servers[i%len(s.servers)].Addr().String()
	}
}

// TestTCPNetworkForwardRoundTrip is the acceptance path: a core.Network
// whose forwards travel loopback TCP through nettrans.TCPConduit, with the
// PR 3 invariant checkers (plaintext confinement, nonce strict-sequence)
// armed and the conduit ownership checker auditing the TCP implementation.
func TestTCPNetworkForwardRoundTrip(t *testing.T) {
	inv := simnet.NewInvariants(simnet.Sentinel)
	uninstall := inv.Install()
	defer uninstall()
	sim := simnet.New(simnet.Config{Seed: 5, Invariants: inv})

	var stack *tcpStack
	var checker *transport.OwnershipChecker
	netw, err := core.NewNetwork(core.NetworkOptions{
		Nodes:   4,
		Seed:    5,
		Backend: core.NullBackend{},
		Conduit: func(direct transport.Conduit) transport.Conduit {
			stack = startTCPStack(t, 1, direct)
			checker = transport.NewOwnershipChecker(stack.tcp)
			return sim.Wrap(checker)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	stack.assign(netw.NodeIDs())

	ids := netw.NodeIDs()
	now := time.Unix(0, 1)
	for i := 0; i < 24; i++ {
		client := netw.Node(ids[i%len(ids)])
		query := fmt.Sprintf("weather %s probe %d", simnet.Sentinel, i)
		res, err := client.Search(query, now)
		if err != nil {
			t.Fatalf("search %d over TCP: %v", i, err)
		}
		if res.RealRelay == "" {
			t.Fatalf("search %d: no relay recorded", i)
		}
	}

	if got := netw.RequestCount(); got != sim.Stats().Attempts {
		t.Errorf("requests (%d) != conduit attempts (%d)", got, sim.Stats().Attempts)
	}
	if v, overflow := inv.Violations(); len(v) != 0 || overflow != 0 {
		t.Fatalf("protocol invariants violated over TCP: %v (+%d)", v, overflow)
	}
	wire, gate, nonce := inv.Scans()
	if wire == 0 || gate == 0 || nonce == 0 {
		t.Fatalf("a checker never ran: wire=%d gate=%d nonce=%d", wire, gate, nonce)
	}
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("TCPConduit violated the ownership contract: %v", v)
	}
}

// TestTCPNonMemberStaysUnavailable: an in-process network over TCP attests
// members in process only, although its conduit could carry the key
// exchange. A relay outside the member set is unavailable (timeout path) —
// never sent an attest frame that could only be refused, which would read as
// misbehaviour and shift what seeded churn runs report.
func TestTCPNonMemberStaysUnavailable(t *testing.T) {
	var stack *tcpStack
	netw, err := core.NewNetwork(core.NetworkOptions{
		Nodes:   3,
		Seed:    5,
		Backend: core.NullBackend{},
		Conduit: func(direct transport.Conduit) transport.Conduit {
			stack = startTCPStack(t, 1, direct)
			return stack.tcp
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := netw.NodeIDs()
	stack.assign(ids)
	client := netw.Node(ids[0])
	if err := netw.RelayRoundTrip(client, ids[1], "to a member", time.Unix(0, 1)); err != nil {
		t.Fatal(err)
	}
	frames := stack.tcp.WriteStats().Frames
	err = netw.RelayRoundTrip(client, "stranger", "to a non-member", time.Unix(0, 2))
	if !errors.Is(err, core.ErrRelayUnavailable) || errors.Is(err, core.ErrRelayMisbehaved) {
		t.Fatalf("forward to a non-member: err = %v, want plain unavailability", err)
	}
	if got := stack.tcp.WriteStats().Frames; got != frames {
		t.Fatalf("%d frames sent towards a non-member, want none", got-frames)
	}
}

// TestTCPLoopbackClientsTimesRelays runs N client goroutines forwarding
// through every other node, with the overlay spread over M servers — the
// N x M loopback integration matrix, meant for the race detector.
func TestTCPLoopbackClientsTimesRelays(t *testing.T) {
	inv := simnet.NewInvariants(simnet.Sentinel)
	uninstall := inv.Install()
	defer uninstall()
	sim := simnet.New(simnet.Config{Seed: 11, Invariants: inv})

	var stack *tcpStack
	netw, err := core.NewNetwork(core.NetworkOptions{
		Nodes:   8,
		Seed:    11,
		Backend: core.NullBackend{},
		Conduit: func(direct transport.Conduit) transport.Conduit {
			stack = startTCPStack(t, 3, direct)
			return sim.Wrap(stack.tcp)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := netw.NodeIDs()
	stack.assign(ids)

	const perClient = 20
	now := time.Unix(0, 1)
	var wg sync.WaitGroup
	errs := make(chan error, len(ids)*perClient)
	for c := range ids {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := netw.Node(ids[c])
			for i := 0; i < perClient; i++ {
				relay := ids[(c+1+i%(len(ids)-1))%len(ids)]
				q := fmt.Sprintf("jobs %s c%d i%d", simnet.Sentinel, c, i)
				if err := netw.RelayRoundTrip(client, relay, q, now); err != nil {
					errs <- fmt.Errorf("client %d forward %d via %s: %w", c, i, relay, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if v, overflow := inv.Violations(); len(v) != 0 || overflow != 0 {
		t.Fatalf("invariants violated: %v (+%d)", v, overflow)
	}
	st := sim.Stats()
	if st.Attempts != uint64(len(ids)*perClient) || st.Delivered != st.Attempts {
		t.Fatalf("accounting drift: %d attempts, %d delivered, want %d", st.Attempts, st.Delivered, len(ids)*perClient)
	}
}

// TestTCPChaosSuite runs the full PR 3 chaos experiment — seeded
// crash/partition schedule, per-delivery tampering, every invariant checker
// and the tamper-accounting checks — with deliveries flowing over loopback
// TCP underneath the fault injector.
func TestTCPChaosSuite(t *testing.T) {
	var stack *tcpStack
	var checker *transport.OwnershipChecker
	report, err := simnet.Chaos(simnet.ChaosOptions{
		Seed:        23,
		Nodes:       8,
		Clients:     4,
		Rounds:      3,
		OpsPerRound: 24,
		K:           1,
		Transport: func(direct transport.Conduit) transport.Conduit {
			stack = startTCPStack(t, 2, direct)
			// Every node id resolves somewhere: spread unknown ids by length
			// parity. Chaos doesn't expose ids before construction, so the
			// resolver is total instead of per-id.
			srv0 := stack.servers[0].Addr().String()
			srv1 := stack.servers[1].Addr().String()
			tcp := NewTCPConduit(ConduitConfig{
				Resolve: func(id string) (string, bool) {
					if len(id)%2 == 0 {
						return srv0, true
					}
					return srv1, true
				},
				PoolConfig: PoolConfig{ID: "chaos-pool", RequestTimeout: 10 * time.Second},
			})
			t.Cleanup(func() { tcp.Close() })
			checker = transport.NewOwnershipChecker(tcp)
			return checker
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad := report.Check(); len(bad) != 0 {
		t.Fatalf("chaos over TCP violated invariants:\n%s", report)
	}
	if report.Sim.ContentFaults() == 0 {
		t.Fatal("chaos run injected no content faults; the tamper-accounting check proved nothing")
	}
	if v := checker.Violations(); len(v) != 0 {
		t.Fatalf("TCPConduit violated the ownership contract under chaos: %v", v)
	}
}

// echoConduit is a trivial server-side handler for conduit plumbing tests.
type echoConduit struct {
	fail error
}

func (e echoConduit) Deliver(_, _ string, payload []byte, _ time.Time) ([]byte, time.Duration, error) {
	if e.fail != nil {
		return nil, 0, e.fail
	}
	out := append([]byte("echo:"), payload...)
	return out, 5 * time.Millisecond, nil
}

func TestTCPConduitErrorClassification(t *testing.T) {
	t.Run("unresolvable relay is unavailable", func(t *testing.T) {
		tcp := NewTCPConduit(ConduitConfig{Resolve: func(string) (string, bool) { return "", false }})
		defer tcp.Close()
		_, _, err := tcp.Deliver("a", "ghost", []byte("x"), time.Now())
		if !errors.Is(err, core.ErrRelayUnavailable) {
			t.Fatalf("err = %v, want ErrRelayUnavailable", err)
		}
	})

	t.Run("dead address is unavailable, then backoff-gated", func(t *testing.T) {
		tcp := NewTCPConduit(ConduitConfig{
			Resolve:    StaticResolver(map[string]string{"b": "127.0.0.1:1"}), // reserved port: refuses
			PoolConfig: PoolConfig{DialTimeout: 500 * time.Millisecond},
		})
		defer tcp.Close()
		_, _, err := tcp.Deliver("a", "b", []byte("x"), time.Now())
		if !errors.Is(err, core.ErrRelayUnavailable) {
			t.Fatalf("dial err = %v, want ErrRelayUnavailable", err)
		}
		_, _, err = tcp.Deliver("a", "b", []byte("x"), time.Now())
		if !errors.Is(err, core.ErrRelayUnavailable) || !errors.Is(err, ErrPeerBackoff) {
			t.Fatalf("backoff err = %v, want ErrRelayUnavailable wrapping ErrPeerBackoff", err)
		}
	})

	t.Run("handler unavailability propagates as unavailable", func(t *testing.T) {
		srv := NewServer(ServerConfig{Handler: echoConduit{fail: fmt.Errorf("%w: relay down", core.ErrRelayUnavailable)}})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		tcp := NewTCPConduit(ConduitConfig{Resolve: StaticResolver(map[string]string{"b": srv.Addr().String()})})
		defer tcp.Close()
		_, _, err := tcp.Deliver("a", "b", []byte("x"), time.Now())
		if !errors.Is(err, core.ErrRelayUnavailable) {
			t.Fatalf("err = %v, want ErrRelayUnavailable", err)
		}
	})

	t.Run("handler rejection is not unavailable", func(t *testing.T) {
		srv := NewServer(ServerConfig{Handler: echoConduit{fail: errors.New("bad record")}})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		tcp := NewTCPConduit(ConduitConfig{Resolve: StaticResolver(map[string]string{"b": srv.Addr().String()})})
		defer tcp.Close()
		_, _, err := tcp.Deliver("a", "b", []byte("x"), time.Now())
		if err == nil || errors.Is(err, core.ErrRelayUnavailable) {
			t.Fatalf("err = %v, want a non-unavailable rejection", err)
		}
	})
}

func TestTCPConduitRoundTripAndInjectedLatency(t *testing.T) {
	srv := NewServer(ServerConfig{Handler: echoConduit{}})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp := NewTCPConduit(ConduitConfig{Resolve: StaticResolver(map[string]string{"b": srv.Addr().String()})})
	defer tcp.Close()

	resp, injected, err := tcp.Deliver("a", "b", []byte("ping"), time.Unix(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:ping" {
		t.Fatalf("resp = %q", resp)
	}
	if injected != 5*time.Millisecond {
		t.Fatalf("injected = %v, want 5ms (handler's extra latency must survive the wire)", injected)
	}

	// The response must stay valid until the next delivery on the same pair
	// even when other pairs deliver in between.
	resp2, _, err := tcp.Deliver("c", "b", []byte("other"), time.Unix(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "echo:ping" || string(resp2) != "echo:other" {
		t.Fatalf("cross-pair buffer reuse: resp=%q resp2=%q", resp, resp2)
	}
}

// TestTCPReconnectAfterIdleDrop proves the pool survives the server reaping
// an idle connection: the next delivery re-dials transparently.
func TestTCPReconnectAfterIdleDrop(t *testing.T) {
	srv := NewServer(ServerConfig{Handler: echoConduit{}, IdleTimeout: 50 * time.Millisecond})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tcp := NewTCPConduit(ConduitConfig{Resolve: StaticResolver(map[string]string{"b": srv.Addr().String()})})
	defer tcp.Close()

	if _, _, err := tcp.Deliver("a", "b", []byte("one"), time.Now()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // server idle-drops the connection
	resp, _, err := tcp.Deliver("a", "b", []byte("two"), time.Now())
	if err != nil {
		t.Fatalf("delivery after idle drop: %v", err)
	}
	if string(resp) != "echo:two" {
		t.Fatalf("resp = %q", resp)
	}
}

// slowConduit delays each exchange so a drain has something in flight.
type slowConduit struct{ d time.Duration }

func (s slowConduit) Deliver(_, _ string, payload []byte, _ time.Time) ([]byte, time.Duration, error) {
	time.Sleep(s.d)
	return append([]byte("slow:"), payload...), 0, nil
}

// TestServerGracefulDrain: Close lets the in-flight exchange finish, and
// later deliveries fail as unavailable.
func TestServerGracefulDrain(t *testing.T) {
	srv := NewServer(ServerConfig{Handler: slowConduit{d: 150 * time.Millisecond}, DrainTimeout: 2 * time.Second})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	tcp := NewTCPConduit(ConduitConfig{Resolve: StaticResolver(map[string]string{"b": srv.Addr().String()})})
	defer tcp.Close()

	type outcome struct {
		resp []byte
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, _, err := tcp.Deliver("a", "b", []byte("inflight"), time.Now())
		done <- outcome{append([]byte(nil), resp...), err}
	}()
	time.Sleep(50 * time.Millisecond) // let the exchange reach the handler
	srv.Close()

	o := <-done
	if o.err != nil {
		t.Fatalf("in-flight exchange failed during drain: %v", o.err)
	}
	if string(o.resp) != "slow:inflight" {
		t.Fatalf("resp = %q", o.resp)
	}

	if _, _, err := tcp.Deliver("a", "b", []byte("late"), time.Now()); !errors.Is(err, core.ErrRelayUnavailable) {
		t.Fatalf("post-drain err = %v, want ErrRelayUnavailable", err)
	}
}
