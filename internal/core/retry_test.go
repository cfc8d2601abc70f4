package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cyclosa/internal/backend"
	"cyclosa/internal/rps"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/transport"
)

// retryNet builds a small NullBackend deployment with zero modelled latency
// and an optional conduit wrapper, for exercising forwardWithRetry edges
// directly.
func retryNet(t *testing.T, conduit func(transport.Conduit) transport.Conduit) (*Network, []string) {
	t.Helper()
	net, err := NewNetwork(NetworkOptions{
		Nodes:        10,
		Seed:         63,
		Backend:      NullBackend{},
		LatencyModel: transport.NewModel(63, nil, 0),
		Conduit:      conduit,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, net.NodeIDs()
}

// failingEngines marks node ids whose engine must fail, switchable at run
// time (BackendFor is called at construction, before a test knows which id
// the client will pick).
type failingEngines struct {
	mu  sync.Mutex
	msg map[string]string // node id -> engine error message
}

func (f *failingEngines) set(id, msg string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.msg == nil {
		f.msg = make(map[string]string)
	}
	f.msg[id] = msg
}

func (f *failingEngines) get(id string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.msg[id]
}

// nodeEngine is one node's backend: it fails while its id is marked.
type nodeEngine struct {
	id string
	f  *failingEngines
}

func (e nodeEngine) Search(string, string, time.Time) ([]searchengine.Result, error) {
	if msg := e.f.get(e.id); msg != "" {
		return nil, errors.New(msg)
	}
	return nil, nil
}

// retryNetEngines is retryNet with per-node switchable engines.
func retryNetEngines(t *testing.T) (*Network, []string, *failingEngines) {
	t.Helper()
	f := &failingEngines{}
	net, err := NewNetwork(NetworkOptions{
		Nodes:        10,
		Seed:         63,
		LatencyModel: transport.NewModel(63, nil, 0),
		BackendFor:   func(id string) Backend { return nodeEngine{id: id, f: f} },
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, net.NodeIDs(), f
}

// dieOnFirstContact kills the first `kills` distinct relays the client
// contacts: each such relay fails its first delivery and goes down,
// modelling relays that die exactly as the client reaches them mid-retry.
type dieOnFirstContact struct {
	inner transport.Conduit
	net   *Network
	kills int

	mu     sync.Mutex
	killed map[string]bool
}

func (c *dieOnFirstContact) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	c.mu.Lock()
	if c.killed == nil {
		c.killed = make(map[string]bool)
	}
	if !c.killed[to] && len(c.killed) < c.kills {
		c.killed[to] = true
		c.mu.Unlock()
		c.net.Kill(to)
		return nil, 0, fmt.Errorf("%w: relay %s died mid-forward", ErrRelayUnavailable, to)
	}
	c.mu.Unlock()
	return c.inner.Deliver(from, to, payload, now)
}

// tamperRelay corrupts every delivery to one relay, making it look
// Byzantine to its clients.
type tamperRelay struct {
	inner transport.Conduit
	relay string
}

func (c *tamperRelay) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	if to == c.relay && len(payload) > 0 {
		payload[len(payload)/2] ^= 0x20
	}
	return c.inner.Deliver(from, to, payload, now)
}

// TestForwardWithRetryTable walks the exclusion and blacklist edges of the
// retry loop.
func TestForwardWithRetryTable(t *testing.T) {
	type outcome struct {
		usedRelay string
		engineErr string // reply.EngineError on a nil-error return
		latency   time.Duration
		err       error
	}
	cases := []struct {
		name string
		// run builds the scenario and performs the call.
		run func(t *testing.T) (client *Node, initialRelay string, out outcome)
		// checks
		wantErr          error // nil means success required
		wantUsedMoved    bool  // the successful relay must differ from the initial one
		wantBlacklists   uint64
		wantMisbehaved   uint64
		wantEngineFailed uint64 // forwards answered with an engine failure
		wantEngineErr    bool   // the returned reply must carry the engine error
		wantTimeout      bool   // latency must include >= 1 relay timeout
	}{
		{
			name: "healthy relay, first attempt",
			run: func(t *testing.T) (*Node, string, outcome) {
				net, ids := retryNet(t, nil)
				client, relay := net.Node(ids[0]), ids[1]
				reply, used, lat, err := client.forwardWithRetry(relay, []byte("q"), t0, []rps.NodeID{rps.NodeID(relay)}, false, nil)
				_ = reply
				return client, relay, outcome{usedRelay: used, latency: lat, err: err}
			},
		},
		{
			name: "dead relay, retry lands elsewhere",
			run: func(t *testing.T) (*Node, string, outcome) {
				net, ids := retryNet(t, nil)
				client, relay := net.Node(ids[0]), ids[1]
				net.Kill(relay)
				_, used, lat, err := client.forwardWithRetry(relay, []byte("q"), t0, []rps.NodeID{rps.NodeID(relay)}, false, nil)
				return client, relay, outcome{usedRelay: used, latency: lat, err: err}
			},
			wantUsedMoved:  true,
			wantBlacklists: 1,
			wantTimeout:    true,
		},
		{
			name: "relay dies mid-retry",
			run: func(t *testing.T) (*Node, string, outcome) {
				die := &dieOnFirstContact{kills: 1}
				net, ids := retryNet(t, func(direct transport.Conduit) transport.Conduit {
					die.inner = direct
					return die
				})
				die.net = net
				client, relay := net.Node(ids[0]), ids[1]
				_, used, lat, err := client.forwardWithRetry(relay, []byte("q"), t0, []rps.NodeID{rps.NodeID(relay)}, false, nil)
				return client, relay, outcome{usedRelay: used, latency: lat, err: err}
			},
			wantUsedMoved:  true,
			wantBlacklists: 1,
			wantTimeout:    true,
		},
		{
			name: "all relays excluded",
			run: func(t *testing.T) (*Node, string, outcome) {
				net, ids := retryNet(t, nil)
				client, relay := net.Node(ids[0]), ids[1]
				net.Kill(relay)
				exclude := make([]rps.NodeID, 0, len(ids))
				for _, id := range ids {
					exclude = append(exclude, rps.NodeID(id))
				}
				_, used, lat, err := client.forwardWithRetry(relay, []byte("q"), t0, exclude, false, nil)
				return client, relay, outcome{usedRelay: used, latency: lat, err: err}
			},
			wantErr:        ErrNoPeers,
			wantBlacklists: 1,
			wantTimeout:    true,
		},
		{
			name: "retry after self-sample",
			run: func(t *testing.T) (*Node, string, outcome) {
				net, ids := retryNet(t, nil)
				client := net.Node(ids[0])
				// The initial "relay" is the node itself: the forward must be
				// refused (the engine would see the requester) and the retry
				// must move on without blacklisting the node.
				_, used, lat, err := client.forwardWithRetry(client.id, []byte("q"), t0, nil, false, nil)
				return client, client.id, outcome{usedRelay: used, latency: lat, err: err}
			},
			wantUsedMoved: true,
		},
		{
			name: "self-sample does not consume an attempt",
			run: func(t *testing.T) (*Node, string, outcome) {
				// Self-sample, then two relays that die on contact: the search
				// still has its full three-forward budget after the self skip,
				// so the third sampled relay completes it.
				die := &dieOnFirstContact{kills: 2}
				net, ids := retryNet(t, func(direct transport.Conduit) transport.Conduit {
					die.inner = direct
					return die
				})
				die.net = net
				client := net.Node(ids[0])
				_, used, lat, err := client.forwardWithRetry(client.id, []byte("q"), t0, nil, false, nil)
				return client, client.id, outcome{usedRelay: used, latency: lat, err: err}
			},
			wantUsedMoved:  true,
			wantBlacklists: 2,
			wantTimeout:    true,
		},
		{
			name: "misbehaving relay blacklisted without timeout",
			run: func(t *testing.T) (*Node, string, outcome) {
				tam := &tamperRelay{}
				net, ids := retryNet(t, func(direct transport.Conduit) transport.Conduit {
					tam.inner = direct
					return tam
				})
				client, relay := net.Node(ids[0]), ids[1]
				tam.relay = relay
				_, used, lat, err := client.forwardWithRetry(relay, []byte("q"), t0, []rps.NodeID{rps.NodeID(relay)}, false, nil)
				return client, relay, outcome{usedRelay: used, latency: lat, err: err}
			},
			wantUsedMoved:  true,
			wantBlacklists: 1,
			wantMisbehaved: 1,
		},
		{
			name: "engine failure re-samples without blacklisting",
			run: func(t *testing.T) (*Node, string, outcome) {
				net, ids, fail := retryNetEngines(t)
				client, relay := net.Node(ids[0]), ids[1]
				// Only the first relay's engine is down; the replacement's is
				// healthy, so the retry completes there — with the honest
				// first relay neither blacklisted nor charged.
				fail.set(relay, "engine-unavailable: circuit open")
				reply, used, lat, err := client.forwardWithRetry(relay, []byte("q"), t0, []rps.NodeID{rps.NodeID(relay)}, false, nil)
				return client, relay, outcome{usedRelay: used, engineErr: reply.EngineError, latency: lat, err: err}
			},
			wantUsedMoved:    true,
			wantEngineFailed: 1,
		},
		{
			name: "every engine failing surfaces the engine error",
			run: func(t *testing.T) (*Node, string, outcome) {
				net, ids, fail := retryNetEngines(t)
				client, relay := net.Node(ids[0]), ids[1]
				for _, id := range ids {
					fail.set(id, "engine-overloaded: brownout everywhere")
				}
				reply, used, lat, err := client.forwardWithRetry(relay, []byte("q"), t0, []rps.NodeID{rps.NodeID(relay)}, false, nil)
				return client, relay, outcome{usedRelay: used, engineErr: reply.EngineError, latency: lat, err: err}
			},
			// Three honest relays tried, none blacklisted, no timeout
			// charged; the caller gets the engine failure, not a relay error.
			wantUsedMoved:    true,
			wantEngineFailed: 3,
			wantEngineErr:    true,
		},
		{
			name: "engine failure with all peers excluded degrades to the reply",
			run: func(t *testing.T) (*Node, string, outcome) {
				net, ids, fail := retryNetEngines(t)
				client, relay := net.Node(ids[0]), ids[1]
				fail.set(relay, "engine-timeout: 800ms budget exhausted")
				exclude := make([]rps.NodeID, 0, len(ids))
				for _, id := range ids {
					exclude = append(exclude, rps.NodeID(id))
				}
				// No replacement exists, but a relay DID answer: the engine
				// failure is the result, not ErrNoPeers.
				reply, used, lat, err := client.forwardWithRetry(relay, []byte("q"), t0, exclude, false, nil)
				return client, relay, outcome{usedRelay: used, engineErr: reply.EngineError, latency: lat, err: err}
			},
			wantEngineFailed: 1,
			wantEngineErr:    true,
		},
		{
			name: "engine failure then relay death blacklists only the dead one",
			run: func(t *testing.T) (*Node, string, outcome) {
				// kills is 2 because the pre-seeded entry below consumes one
				// slot: the wrapper then kills exactly one fresh relay.
				die := &dieOnFirstContact{kills: 2}
				var net *Network
				fail := &failingEngines{}
				net, err := NewNetwork(NetworkOptions{
					Nodes:        10,
					Seed:         63,
					LatencyModel: transport.NewModel(63, nil, 0),
					BackendFor:   func(id string) Backend { return nodeEngine{id: id, f: fail} },
					Conduit: func(direct transport.Conduit) transport.Conduit {
						die.inner = direct
						return die
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				die.net = net
				ids := net.NodeIDs()
				client, relay := net.Node(ids[0]), ids[1]
				// First relay reports an engine failure (honest), the
				// replacement dies on contact (blacklisted), the third
				// completes. Exactly one blacklist, one engine failure.
				fail.set(relay, "engine 503")
				die.killed = map[string]bool{relay: true} // the die wrapper must not touch the engine-failing relay
				reply, used, lat, err2 := client.forwardWithRetry(relay, []byte("q"), t0, []rps.NodeID{rps.NodeID(relay)}, false, nil)
				return client, relay, outcome{usedRelay: used, engineErr: reply.EngineError, latency: lat, err: err2}
			},
			wantUsedMoved:    true,
			wantBlacklists:   1,
			wantEngineFailed: 1,
			wantTimeout:      true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client, initial, out := tc.run(t)
			if tc.wantErr != nil {
				if !errors.Is(out.err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", out.err, tc.wantErr)
				}
			} else if out.err != nil {
				t.Fatalf("unexpected error: %v", out.err)
			}
			if tc.wantErr == nil {
				if out.usedRelay == "" || out.usedRelay == client.id {
					t.Errorf("usedRelay = %q (must be a peer)", out.usedRelay)
				}
				if tc.wantUsedMoved && out.usedRelay == initial {
					t.Errorf("retry stayed on the failed relay %s", initial)
				}
				if !tc.wantUsedMoved && out.usedRelay != initial {
					t.Errorf("usedRelay = %s, want the initial %s", out.usedRelay, initial)
				}
			}
			if tc.wantEngineErr && out.engineErr == "" {
				t.Error("reply must carry the engine error")
			}
			if !tc.wantEngineErr && out.engineErr != "" {
				t.Errorf("unexpected engine error in reply: %q", out.engineErr)
			}
			st := client.Stats()
			if st.Blacklisted != tc.wantBlacklists {
				t.Errorf("blacklisted = %d, want %d", st.Blacklisted, tc.wantBlacklists)
			}
			if st.Misbehaved != tc.wantMisbehaved {
				t.Errorf("misbehaved = %d, want %d", st.Misbehaved, tc.wantMisbehaved)
			}
			if st.EngineFailed != tc.wantEngineFailed {
				t.Errorf("engineFailed = %d, want %d", st.EngineFailed, tc.wantEngineFailed)
			}
			if tc.wantTimeout && out.latency < client.relayTimeout {
				t.Errorf("latency %v did not charge the relay timeout %v", out.latency, client.relayTimeout)
			}
			if !tc.wantTimeout && out.latency >= client.relayTimeout {
				t.Errorf("latency %v charged a timeout it should not have", out.latency)
			}
		})
	}
}

// TestSelfRelayRefused pins the invariant directly: the network refuses to
// relay a node's query through itself no matter how it is asked.
func TestSelfRelayRefused(t *testing.T) {
	net, ids := retryNet(t, nil)
	client := net.Node(ids[0])
	_, _, err := net.forward(client, client.id, []byte("own query"), t0, false)
	if !errors.Is(err, ErrSelfRelay) {
		t.Fatalf("err = %v, want ErrSelfRelay", err)
	}
	if got := net.RequestCount(); got != 0 {
		t.Errorf("self-forward allocated request id (count %d)", got)
	}
}

// TestSearchClassifiesEngineFailure: a deployment-wide engine brownout must
// surface as a typed EngineError on the search result — nil protocol error,
// nobody blacklisted, nothing charged as misbehavior — and the requester
// must be able to errors.Is against the backend taxonomy across the wire.
func TestSearchClassifiesEngineFailure(t *testing.T) {
	net, ids, fail := retryNetEngines(t)
	client := net.Node(ids[0])
	for _, id := range ids {
		fail.set(id, "engine-overloaded: 4 engine calls in flight")
	}
	res, err := client.Search("a query in the brownout", t0)
	if err != nil {
		t.Fatalf("engine failure is not a search error, got %v", err)
	}
	if res.EngineError == nil {
		t.Fatal("EngineError must carry the engine failure")
	}
	if !errors.Is(res.EngineError, backend.ErrEngineOverloaded) {
		t.Fatalf("EngineError %v must classify as ErrEngineOverloaded", res.EngineError)
	}
	st := client.Stats()
	if st.Blacklisted != 0 || st.Misbehaved != 0 {
		t.Fatalf("engine failures charged to relays: %+v", st)
	}
	if st.EngineFailed == 0 {
		t.Fatalf("EngineFailed must count the failed forwards: %+v", st)
	}

	// The brownout ends: the same client searches successfully with no
	// residue (no relay was lost to the blacklist).
	for _, id := range ids {
		fail.set(id, "")
	}
	res, err = client.Search("after the brownout", t0)
	if err != nil || res.EngineError != nil {
		t.Fatalf("post-brownout search failed: err=%v engineErr=%v", err, res.EngineError)
	}
}
