package nettrans

import (
	"cyclosa/internal/testutil"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/telemetry"
	"cyclosa/internal/transport"
	"cyclosa/internal/workers"
)

// Search over the submit seam: core.Node.Search run on a TCPConduit, which
// implements the seam natively, and on the same conduit with Submit hidden,
// which sends it through core's path-worker adapter.

type alwaysSensitive struct{}

func (alwaysSensitive) IsSensitive([]string) bool { return true }

// titleBackend answers every query with one result naming it.
type titleBackend struct{}

func (titleBackend) Search(source, query string, _ time.Time) ([]searchengine.Result, error) {
	return []searchengine.Result{{DocID: len(query), URL: "http://engine/" + source, Title: query, Score: 1}}, nil
}

// deliverOnly hides everything of a conduit but Deliver.
type deliverOnly struct{ inner transport.Conduit }

func (d deliverOnly) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	return d.inner.Deliver(from, to, payload, now)
}

// searchNetOpts shapes a kmax network over loopback TCP.
type searchNetOpts struct {
	nodes, hosts int
	seed         int64
	pool         PoolConfig
	// client wraps the TCPConduit the nodes' forwards leave through; handler
	// wraps the direct conduit the servers deliver to.
	client  func(*TCPConduit) transport.Conduit
	handler func(transport.Conduit) transport.Conduit
}

// newSearchNet builds a network whose every search runs at k = 7 and whose
// forwards cross loopback TCP to opts.hosts servers (node i on host
// i mod hosts).
func newSearchNet(t *testing.T, opts searchNetOpts) (*core.Network, *TCPConduit) {
	t.Helper()
	table := make([]string, 32)
	for i := range table {
		table[i] = fmt.Sprintf("bootstrap query %d", i)
	}
	var mu sync.Mutex
	addrs := make(map[string]string)
	var servers []*Server
	var tcp *TCPConduit
	netw, err := core.NewNetwork(core.NetworkOptions{
		Nodes:            opts.nodes,
		Seed:             opts.seed,
		Backend:          titleBackend{},
		BootstrapQueries: table,
		// No modelled link latency: what is left of SearchResult.Latency (the
		// dispatch cost, a relay timeout charged) does not depend on the order
		// in which concurrent paths draw from the model's stream.
		LatencyModel: transport.NewModel(opts.seed, nil, 0),
		AnalyzerFor: func(string) *sensitivity.Analyzer {
			return sensitivity.NewAnalyzer(alwaysSensitive{}, nil, 7)
		},
		Conduit: func(direct transport.Conduit) transport.Conduit {
			handler := direct
			if opts.handler != nil {
				handler = opts.handler(direct)
			}
			for i := 0; i < opts.hosts; i++ {
				servers = append(servers, startEchoServer(t, ServerConfig{ID: fmt.Sprintf("host-%d", i), Handler: handler}))
			}
			tcp = NewTCPConduit(ConduitConfig{
				Resolve: func(id string) (string, bool) {
					mu.Lock()
					defer mu.Unlock()
					a, ok := addrs[id]
					return a, ok
				},
				PoolConfig: opts.pool,
			})
			t.Cleanup(func() { tcp.Close() })
			if opts.client != nil {
				return opts.client(tcp)
			}
			return tcp
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	for i, id := range netw.NodeIDs() {
		addrs[id] = servers[i%len(servers)].Addr().String()
	}
	mu.Unlock()
	return netw, tcp
}

// TestConcurrentSearchesSharedRelays: a search holds its k+1 pair locks from
// seal to open, so two searches of one node that sampled the same relays in
// a different order must not wait on each other in a cycle. One node, eight
// relays, k = 7 — every search takes all eight locks — from 64 goroutines.
// A cycle is a hang (run with -timeout); the counts are exact.
func TestConcurrentSearchesSharedRelays(t *testing.T) {
	netw, _ := newSearchNet(t, searchNetOpts{nodes: 9, hosts: 2, seed: 81})
	node := netw.Node(netw.NodeIDs()[0])
	const goroutines, perGoroutine = 64, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoroutine; i++ {
				res, err := node.Search(fmt.Sprintf("shared relays %d/%d", g, i), time.Unix(0, 1))
				if err != nil {
					t.Errorf("search %d/%d: %v", g, i, err)
					return
				}
				if res.K != 7 {
					t.Errorf("search %d/%d: K = %d, want 7", g, i, res.K)
				}
			}
		}(g)
	}
	wg.Wait()
	s := node.Stats()
	if want := uint64(goroutines * perGoroutine); s.Searches != want || s.FakesSent != 7*want {
		t.Fatalf("%d searches with %d fakes, want %d with %d", s.Searches, s.FakesSent, want, 7*want)
	}
	if got, want := netw.RequestCount(), uint64(8*goroutines*perGoroutine); got != want {
		t.Fatalf("%d forward requests, want %d", got, want)
	}
}

// faultyRelays is a server-side handler in front of the direct conduit: the
// tamperer's answers come back with a flipped bit, the silent relay's never
// come back.
type faultyRelays struct {
	inner            transport.Conduit
	tamperer, silent string
	release          chan struct{}
}

func (f *faultyRelays) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	if to == f.silent {
		<-f.release
		return nil, 0, fmt.Errorf("%w: released", core.ErrRelayUnavailable)
	}
	resp, injected, err := f.inner.Deliver(from, to, payload, now)
	if err == nil && to == f.tamperer {
		resp = append([]byte(nil), resp...)
		resp[len(resp)/2] ^= 0x40
	}
	return resp, injected, err
}

// searchRun is everything the two conduit kinds must agree on.
type searchRun struct {
	Results  []core.SearchResult
	Errs     []string
	Requests uint64
	Stats    []core.NodeStats
	Retries  uint64
}

// TestSearchNativeAndAdapterAgree runs the same seeded searches over the
// TCPConduit natively and over the same conduit hidden behind a Deliver-only
// wrapper, clean and with one tampering and one silent relay: same results,
// same request count, same fakes, same blacklistings and retries. There is
// one Search; which submit seam it got must not show.
func TestSearchNativeAndAdapterAgree(t *testing.T) {
	run := func(t *testing.T, faulty, native bool) searchRun {
		opts := searchNetOpts{nodes: 12, hosts: 2, seed: 82, pool: PoolConfig{RequestTimeout: 150 * time.Millisecond}}
		if !native {
			opts.client = func(tcp *TCPConduit) transport.Conduit { return deliverOnly{tcp} }
		}
		var faults *faultyRelays
		if faulty {
			opts.handler = func(direct transport.Conduit) transport.Conduit {
				faults = &faultyRelays{inner: direct, release: make(chan struct{})}
				return faults
			}
		}
		netw, _ := newSearchNet(t, opts)
		ids := netw.NodeIDs()
		if faulty {
			faults.tamperer, faults.silent = ids[3], ids[5]
			defer close(faults.release)
		}
		retries := forwardRetries()
		var out searchRun
		for i := 0; i < 24; i++ {
			node := netw.Node(ids[i%3])
			res, err := node.Search(fmt.Sprintf("agreement probe %d", i), time.Unix(0, int64(i+1)))
			if res != nil {
				out.Results = append(out.Results, *res)
			}
			out.Errs = append(out.Errs, fmt.Sprint(err))
		}
		out.Requests = netw.RequestCount()
		for _, id := range ids {
			out.Stats = append(out.Stats, netw.Node(id).Stats())
		}
		out.Retries = forwardRetries() - retries
		return out
	}
	for _, faulty := range []bool{false, true} {
		name := "clean"
		if faulty {
			name = "one tampering and one silent relay"
		}
		t.Run(name, func(t *testing.T) {
			native, adapter := run(t, faulty, true), run(t, faulty, false)
			if !reflect.DeepEqual(native, adapter) {
				t.Fatalf("the two submit seams disagree:\nnative  %+v\nadapter %+v", native, adapter)
			}
			var blacklisted, misbehaved uint64
			for _, s := range native.Stats {
				blacklisted += s.Blacklisted
				misbehaved += s.Misbehaved
			}
			if !faulty && (blacklisted != 0 || native.Retries != 0) {
				t.Fatalf("clean run blacklisted %d relays and retried %d forwards", blacklisted, native.Retries)
			}
			if faulty && (misbehaved == 0 || blacklisted <= misbehaved || native.Retries < blacklisted) {
				t.Fatalf("faulty run: %d misbehaved, %d blacklisted, %d retries; want the tamperer caught, the silent relay timed out, and a retry for each", misbehaved, blacklisted, native.Retries)
			}
			for i, res := range native.Results {
				if native.Errs[i] != "<nil>" || len(res.Results) != 1 || res.Results[0].Title != fmt.Sprintf("agreement probe %d", i) {
					t.Fatalf("search %d: err %s, page %+v", i, native.Errs[i], res.Results)
				}
			}
		})
	}
}

// forwardRetries reads core's retry counter off the telemetry exposition.
func forwardRetries() uint64 {
	const name = "cyclosa_core_forward_retries_total "
	for _, line := range strings.Split(string(telemetry.Default().AppendText(nil)), "\n") {
		if v, ok := strings.CutPrefix(line, name); ok {
			n, _ := strconv.ParseUint(v, 10, 64)
			return n
		}
	}
	return 0
}

// TestWarmSearchOneFlushPerConnection pins what a warm protected search
// costs on the wire and in goroutines: at k = 7 over two hosts, 8 frames in
// exactly 2 flushes — one per destination connection — and no path worker,
// neither started nor borrowed.
func TestWarmSearchOneFlushPerConnection(t *testing.T) {
	netw, tcp := newSearchNet(t, searchNetOpts{nodes: 16, hosts: 2, seed: 83})
	ids := netw.NodeIDs()
	node := netw.Node(ids[0])
	search := func() {
		t.Helper()
		res, err := node.Search("kidney dialysis treatment", time.Unix(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.K != 7 {
			t.Fatalf("K = %d, want 7", res.K)
		}
	}
	// Warm-up: attest every pair the node can sample (first contact runs on
	// path workers), then let those workers expire — from there on any path
	// worker a search used would have to be started, and be counted.
	for i := 0; i < 60; i++ {
		search()
	}
	time.Sleep(2*workers.Linger + workers.Linger/2)

	spawned, before := workers.Spawned("path"), tcp.WriteStats()
	const searches = 50
	for i := 0; i < searches; i++ {
		search()
	}
	after := tcp.WriteStats()
	if got := workers.Spawned("path") - spawned; got != 0 {
		t.Fatalf("%d warm searches over TCP used %d path workers, want 0", searches, got)
	}
	if frames, flushes := after.Frames-before.Frames, after.Flushes-before.Flushes; frames != 8*searches || flushes != 2*searches {
		t.Fatalf("%d searches wrote %d frames in %d flushes, want %d in %d (one flush per connection)", searches, frames, flushes, 8*searches, 2*searches)
	}
}

// tcpSearchAllocBudget bounds TestTCPSearchAllocs: 19 measured — 3 on the
// searching node (the result, 2 for the real page's decode) and 2 at each
// of the eight relays (titleBackend's page). The query is tokenized into
// scratch, the servers hand their handler interned ids, the table keeps
// bytes, the engine's query string is cut from a shared chunk, and a round
// trip's result channel is the connection's.
const tcpSearchAllocBudget = 19

// TestTCPSearchAllocs pins the allocations of a whole warm k = 7 search over
// loopback TCP — both ends of all eight paths, since the servers run in this
// process — with the per-search scratch (call slots, batch, channels) pooled.
func TestTCPSearchAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	netw, _ := newSearchNet(t, searchNetOpts{nodes: 16, hosts: 2, seed: 84})
	node := netw.Node(netw.NodeIDs()[0])
	search := func() {
		if _, err := node.Search("kidney dialysis treatment", time.Unix(0, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		search()
	}
	allocs := testing.AllocsPerRun(200, search)
	t.Logf("warm k=7 search over TCP: %.1f allocs", allocs)
	if allocs > tcpSearchAllocBudget {
		t.Fatalf("warm k=7 search over TCP allocates %.1f times, budget %d", allocs, tcpSearchAllocBudget)
	}
}
