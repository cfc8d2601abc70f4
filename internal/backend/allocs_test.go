package backend_test

import (
	"testing"
	"time"

	"cyclosa/internal/backend"
	"cyclosa/internal/core"
	"cyclosa/internal/testutil"
	"cyclosa/internal/transport"
)

var t0 = time.Unix(1700000000, 0)

// TestStackAllocBudget pins the decorator stack's hot path: once the worker
// pool, call frames and timers are warm, a successful Search through gate +
// breaker + retry + watchdog over an instant engine allocates nothing.
func TestStackAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	s := backend.NewStack(core.NullBackend{}, backend.Policy{})
	for i := 0; i < 16; i++ {
		if _, err := s.Search("n1", "warm", t0); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(1000, func() {
		if _, err := s.Search("n1", "alloc probe", t0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Stack.Search allocs/op: %.1f", n)
	if n > 0 {
		t.Errorf("Stack.Search allocates %.1f times per op on the success path, want 0", n)
	}
}

// TestStackRelayAllocBudget pins the full forward round trip with every
// relay's NullBackend wrapped in the decorator stack at the bare relay's
// 0 allocs/op — resilience must be free on the hot path.
func TestStackRelayAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}
	net, err := core.NewNetwork(core.NetworkOptions{
		Nodes:        2,
		Seed:         71,
		LatencyModel: transport.NewModel(71, nil, 0),
		BackendFor: func(string) core.Backend {
			return backend.NewStack(core.NullBackend{}, backend.Policy{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := net.NodeIDs()
	client, relay := net.Node(ids[0]), ids[1]
	for i := 0; i < 16; i++ {
		if err := net.RelayRoundTrip(client, relay, "alloc probe", t0); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(500, func() {
		if err := net.RelayRoundTrip(client, relay, "alloc probe", t0); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RelayRoundTrip through decorator stack allocs/op: %.1f", n)
	if n != 0 {
		t.Errorf("RelayRoundTrip through the stack = %.1f allocs/op, budget is 0", n)
	}
}
