package core

import (
	"sync"
	"testing"
	"time"

	"cyclosa/internal/queries"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/transport"
	"cyclosa/internal/workload"
)

// The hammer uses core_test.go's alwaysSensitive detector to force
// k = kmax on every query, so the aggregate forward counts below are exact
// functions of the operation count.

// hammerAggregates are the scheduling-independent aggregates of a hammer
// run: every successful Search contributes exactly 1 search, k fakes and
// k+1 forwards, no matter how the goroutines interleave.
type hammerAggregates struct {
	Searches  uint64
	FakesSent uint64
	Relayed   uint64
	Requests  uint64
	TableSum  int
}

const (
	hammerNodes     = 16
	hammerGoroutine = 64
	hammerOps       = 1280
	hammerK         = 3
	hammerBootstrap = 32
)

// runHammer builds a fresh network and drives hammerGoroutine client
// goroutines through hammerOps Searches at fixed k, then returns the
// aggregate counters.
func runHammer(t *testing.T, seed int64) hammerAggregates {
	t.Helper()
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: seed})
	net, err := NewNetwork(NetworkOptions{
		Nodes:        hammerNodes,
		Seed:         seed,
		Backend:      NullBackend{},
		LatencyModel: transport.NewModel(seed, nil, 0),
		AnalyzerFor: func(string) *sensitivity.Analyzer {
			return sensitivity.NewAnalyzer(alwaysSensitive{}, nil, hammerK)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.BootstrapFromTrending(uni, hammerBootstrap, seed)
	ids := net.NodeIDs()

	gen, err := workload.NewZipf(uni, workload.ZipfConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	res, err := workload.Run(
		func(client, _ int, query string) error {
			_, serr := net.Node(ids[client%len(ids)]).Search(query, t0)
			return serr
		},
		workload.Options{
			Clients:   hammerGoroutine,
			Ops:       hammerOps,
			Generator: gen,
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d of %d searches failed (all relays alive, tables bootstrapped)", res.Errors, hammerOps)
	}
	if res.Ops != hammerOps {
		t.Fatalf("engine reported %d ops, want %d", res.Ops, hammerOps)
	}

	agg := hammerAggregates{Requests: net.RequestCount()}
	for _, id := range ids {
		s := net.Node(id).Stats()
		agg.Searches += s.Searches
		agg.FakesSent += s.FakesSent
		agg.Relayed += s.Relayed
		agg.TableSum += net.Node(id).TableLen()
	}
	return agg
}

// TestConcurrentHammerDeterministicAggregates is the race-proof determinism
// check of the de-serialized hot path: 64 goroutines hammer one Network
// (run it under -race), and two runs from the same seed must produce
// identical aggregate stats even though goroutine interleaving differs.
func TestConcurrentHammerDeterministicAggregates(t *testing.T) {
	first := runHammer(t, 77)
	second := runHammer(t, 77)
	if first != second {
		t.Fatalf("aggregates differ across identically-seeded runs:\n first: %+v\nsecond: %+v", first, second)
	}

	want := hammerAggregates{
		Searches:  hammerOps,
		FakesSent: hammerOps * hammerK,
		Relayed:   hammerOps * (hammerK + 1),
		Requests:  hammerOps * (hammerK + 1),
		// No eviction at this volume: every bootstrap entry and every
		// relayed query is still resident.
		TableSum: hammerNodes*hammerBootstrap + hammerOps*(hammerK+1),
	}
	if first != want {
		t.Fatalf("aggregates = %+v, want %+v", first, want)
	}
}

// TestKillAndGossipDuringForwards exercises the control plane while the
// data plane is hot: the gossip loop ticks, nodes get killed and liveness
// is polled while 64 goroutines keep forwarding. The run must stay
// race-free and deadlock-free, failed searches must be the only casualty,
// and every issued request must still be accounted by exactly one relay.
func TestKillAndGossipDuringForwards(t *testing.T) {
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 99})
	net, err := NewNetwork(NetworkOptions{
		Nodes:        hammerNodes,
		Seed:         99,
		Backend:      NullBackend{},
		LatencyModel: transport.NewModel(99, nil, 0),
		AnalyzerFor: func(string) *sensitivity.Analyzer {
			return sensitivity.NewAnalyzer(alwaysSensitive{}, nil, hammerK)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.BootstrapFromTrending(uni, hammerBootstrap, 99)
	ids := net.NodeIDs()

	defer gossipWhile(net, 200*time.Microsecond)()

	// Kill two relays and poll liveness concurrently with the hammer.
	var ctl sync.WaitGroup
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		for i := 0; i < 2; i++ {
			time.Sleep(2 * time.Millisecond)
			net.Kill(ids[len(ids)-1-i])
		}
		for i := 0; i < 100; i++ {
			for _, id := range ids {
				net.Alive(id)
			}
		}
	}()

	gen, err := workload.NewZipf(uni, workload.ZipfConfig{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	_, err = workload.Run(
		func(client, _ int, query string) error {
			// Clients stick to nodes that stay alive; relays may die mid-run.
			node := net.Node(ids[client%(len(ids)-2)])
			_, serr := node.Search(query, t0)
			return serr // counted by the engine, not fatal: relays are dying
		},
		workload.Options{
			Clients:   hammerGoroutine,
			Ops:       hammerOps,
			Generator: gen,
		})
	if err != nil {
		t.Fatal(err)
	}
	ctl.Wait()

	var relayed uint64
	for _, id := range ids {
		relayed += net.Node(id).Stats().Relayed
	}
	if got := net.RequestCount(); relayed != got {
		t.Fatalf("relays accounted %d forwards, network issued %d", relayed, got)
	}
}
