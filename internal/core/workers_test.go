package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyclosa/internal/sensitivity"
	"cyclosa/internal/transport"
	"cyclosa/internal/workers"
)

// kmaxNet is a 16-node NullBackend deployment whose every search runs at
// k = 7. Its conduit only has Deliver, so a warm search's eight deliveries
// run on eight path workers (deliverAdapter); over a conduit with a native
// submit seam a warm search uses none, which nettrans pins
// (TestWarmSearchOneFlushPerConnection).
func kmaxNet(t *testing.T, seed int64, conduit func(transport.Conduit) transport.Conduit) *Network {
	t.Helper()
	net, err := NewNetwork(NetworkOptions{
		Nodes:        16,
		Seed:         seed,
		Backend:      NullBackend{},
		LatencyModel: transport.NewModel(seed, nil, 0),
		Conduit:      conduit,
		AnalyzerFor: func(string) *sensitivity.Analyzer {
			return sensitivity.NewAnalyzer(alwaysSensitive{}, nil, 7)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.BootstrapFromTrending(getWorld(t).uni, 24, seed)
	return net
}

func searchKMax(t *testing.T, node *Node) {
	t.Helper()
	res, err := node.Search("kidney dialysis treatment", t0)
	if err != nil {
		t.Error(err)
		return
	}
	if res.K != 7 {
		t.Errorf("K = %d, want 7", res.K)
	}
}

// waitPathWorkers polls until the network has want live path workers.
func waitPathWorkers(t *testing.T, net *Network, want int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for net.paths.Live() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d path workers live after %v, want %d", net.paths.Live(), within, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSearchReusesPathWorkers: once the pool is warm, 200 searches in a row
// at k = 7 — 1,600 deliveries through the adapter — start no goroutine, and
// the workers are gone two lingers after the last of them. The warm-up
// overlaps searches until the pool holds twice the workers one search takes:
// a sequential search then always finds eight parked, whatever the scheduler
// does to the eight that have just reported.
func TestSearchReusesPathWorkers(t *testing.T) {
	net := kmaxNet(t, 71, nil)
	ids := net.NodeIDs()
	for net.paths.Live() < 16 {
		var wg sync.WaitGroup
		for _, id := range ids[:4] {
			wg.Add(1)
			go func(node *Node) {
				defer wg.Done()
				searchKMax(t, node)
			}(net.Node(id))
		}
		wg.Wait()
	}
	time.Sleep(10 * time.Millisecond) // let the last reporters park

	node := net.Node(ids[0])
	before := workers.Spawned("path")
	for i := 0; i < 200; i++ {
		searchKMax(t, node)
	}
	if got := workers.Spawned("path") - before; got != 0 {
		t.Fatalf("200 warm searches at k=7 started %d goroutines, want 0", got)
	}

	waitPathWorkers(t, net, 0, 2*workers.Linger+workers.Linger/2)
}

// hangFrom is a conduit that parks every delivery from the given clients
// until released — relays that never answer, as far as they can tell.
type hangFrom struct {
	inner   transport.Conduit
	clients map[string]bool
	hanging atomic.Int64
	release chan struct{}
}

func (c *hangFrom) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	if c.clients[from] {
		c.hanging.Add(1)
		<-c.release
	}
	return c.inner.Deliver(from, to, payload, now)
}

// TestSearchNeverQueuesBehindHungPaths: with every path worker stuck on a
// relay that never answers, a search on another node starts its paths at
// once and completes. A pool with a size, or one that queued behind busy
// workers, would hang here.
func TestSearchNeverQueuesBehindHungPaths(t *testing.T) {
	var hang *hangFrom
	net := kmaxNet(t, 72, func(direct transport.Conduit) transport.Conduit {
		hang = &hangFrom{inner: direct, release: make(chan struct{})}
		return hang
	})
	ids := net.NodeIDs()
	victims, other := ids[:8], net.Node(ids[8])
	for i := 0; i < 8; i++ {
		searchKMax(t, other) // warm: idle workers exist before the hang
	}
	hang.clients = make(map[string]bool)
	for _, id := range victims {
		hang.clients[id] = true
	}

	// Hang one search per victim (each on pairs of its own, so all eight of
	// its paths reach the conduit) until no worker is left idle.
	var stuck sync.WaitGroup
	for started := 0; started == 0 || int(hang.hanging.Load()) < net.paths.Live(); started++ {
		stuck.Add(1)
		go func(victim *Node) {
			defer stuck.Done()
			searchKMax(t, victim)
		}(net.Node(victims[started]))
		want := int64(8 * (started + 1))
		for deadline := time.Now().Add(5 * time.Second); hang.hanging.Load() < want; {
			if time.Now().After(deadline) {
				t.Fatalf("%d paths hanging, want %d", hang.hanging.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		searchKMax(t, other)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a search waited behind another node's hung paths")
	}

	close(hang.release)
	stuck.Wait()
}

// TestSearchHammerWhileWorkersExpire is the race-detector run of the path
// pool: 64 goroutines search in bursts separated by pauses spread around the
// linger, so workers are expiring while other searches hand paths over.
// Every search must complete with its fakes accounted for.
func TestSearchHammerWhileWorkersExpire(t *testing.T) {
	net := kmaxNet(t, 73, nil)
	ids := net.NodeIDs()
	const goroutines, rounds, perRound = 64, 3, 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			node := net.Node(ids[g%len(ids)])
			for r := 0; r < rounds; r++ {
				for i := 0; i < perRound; i++ {
					searchKMax(t, node)
				}
				time.Sleep(workers.Linger/2 + time.Duration(g)*workers.Linger/goroutines)
			}
		}(g)
	}
	wg.Wait()

	var searches, fakes uint64
	for _, id := range ids {
		s := net.Node(id).Stats()
		searches += s.Searches
		fakes += s.FakesSent
	}
	if want := uint64(goroutines * rounds * perRound); searches != want || fakes != 7*want {
		t.Fatalf("%d searches with %d fakes, want %d with %d", searches, fakes, want, 7*want)
	}
	waitPathWorkers(t, net, 0, 2*workers.Linger+workers.Linger/2)
}
