package simnet

import (
	"testing"

	"cyclosa/internal/core"
	"cyclosa/internal/testutil"
	"cyclosa/internal/transport"
)

// TestSimnetSeamAllocBudget guards the cost of the conduit seam: with fault
// injection disabled, routing every forward through a Sim may add at most
// one allocation to RelayRoundTrip over the direct path, and the wrapped
// path must stay within 1 alloc/op (the direct path makes none).
func TestSimnetSeamAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unstable under -race")
	}

	measure := func(wrap func(transport.Conduit) transport.Conduit) float64 {
		net, err := core.NewNetwork(core.NetworkOptions{
			Nodes:        2,
			Seed:         71,
			Backend:      core.NullBackend{},
			LatencyModel: transport.NewModel(71, nil, 0),
			Conduit:      wrap,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids := net.NodeIDs()
		client, relay := net.Node(ids[0]), ids[1]
		// Warm up: attested handshake and scratch buffer growth happen once.
		for i := 0; i < 4; i++ {
			if err := net.RelayRoundTrip(client, relay, "alloc probe", t0); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(500, func() {
			if err := net.RelayRoundTrip(client, relay, "alloc probe", t0); err != nil {
				t.Fatal(err)
			}
		})
	}

	direct := measure(nil)
	sim := New(Config{Seed: 71}) // zero FaultConfig: injection disabled
	wrapped := measure(sim.Wrap)

	t.Logf("RelayRoundTrip allocs/op: direct %.1f, simnet (faults disabled) %.1f", direct, wrapped)
	if wrapped > direct+1 {
		t.Errorf("simnet seam adds %.1f allocs/op (direct %.1f, wrapped %.1f), budget is +1",
			wrapped-direct, direct, wrapped)
	}
	if wrapped > 1 {
		t.Errorf("wrapped RelayRoundTrip = %.1f allocs/op, budget is 1", wrapped)
	}
	if st := sim.Stats(); st.Attempts == 0 || st.Attempts != st.Delivered {
		t.Errorf("faultless sim must deliver every attempt: %+v", st)
	}
}
