package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyclosa/internal/searchengine"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/testutil"
	"cyclosa/internal/transport"
	"cyclosa/internal/workers"
)

// The in-process conduit's own submit seam: directConduit.Submit serves a
// batch on the submitting goroutine and on path-worker helpers, and gives
// each record left unclaimed after claimWithin a worker of its own.

// directBatchOf seals one record of query from client to each relay, with
// every pair attested first, and returns the batch with the calls to open
// its answers with.
func directBatchOf(t *testing.T, net *Network, client *Node, relays []string, query []byte) ([]transport.Submission, []forwardCall) {
	t.Helper()
	calls := make([]forwardCall, len(relays))
	batch := make([]transport.Submission, 0, len(relays)+1)
	for i, relay := range relays {
		if _, _, err := net.forward(client, relay, []byte("attest the pair"), t0, true); err != nil {
			t.Fatal(err)
		}
		record, err := net.sealForward(client, relay, query, true, false, time.Now(), &calls[i])
		if err != nil {
			t.Fatal(err)
		}
		batch = append(batch, transport.Submission{To: relay, Payload: record, Tag: i})
	}
	return batch, calls
}

// TestDirectSubmitExactlyOnce: every record of an in-process batch is
// completed once, in any order, before Submit returns; a relay that is no
// member completes with ErrRelayUnavailable. With GOMAXPROCS 1 and no claim
// timeout the caller serves the whole batch and no path worker is involved;
// with a claim timeout that fires at once, helpers it starts race the
// claimers for the records.
func TestDirectSubmitExactlyOnce(t *testing.T) {
	cases := []struct {
		procs       int
		claimWithin time.Duration
	}{
		{1, time.Hour},
		{max(2, runtime.GOMAXPROCS(0)), defaultClaimWithin},
		{1, time.Nanosecond},
		{max(2, runtime.GOMAXPROCS(0)), time.Nanosecond},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d,claimWithin=%v", tc.procs, tc.claimWithin), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			net, ids := retryNet(t, nil)
			if _, native := net.submit.(directConduit); !native {
				t.Fatal("the in-process conduit is not its own submit seam")
			}
			net.claimWithin = tc.claimWithin
			client := net.Node(ids[0])
			for round := 0; round < 50; round++ {
				batch, calls := directBatchOf(t, net, client, ids[1:9], []byte("exactly once probe"))
				stranger := len(batch)
				batch = append(batch, transport.Submission{To: "stranger", Payload: []byte("no relay to open this"), Tag: stranger})
				// One slot more than owed: a record completed twice shows
				// below instead of blocking its claimer.
				done := make(chan transport.Completion, len(batch)+1)
				spawned := workers.Spawned("path")

				net.submit.Submit(client.id, t0, batch, done)
				if len(done) < len(batch) {
					t.Fatalf("Submit returned with %d of %d records completed", len(done), len(batch))
				}
				if tc.procs == 1 && tc.claimWithin == time.Hour {
					if got := workers.Spawned("path") - spawned; got != 0 {
						t.Fatalf("Submit on one processor started %d path workers", got)
					}
				}
				seen := make([]int, len(batch))
				for range batch {
					var c transport.Completion
					select {
					case c = <-done:
					case <-time.After(5 * time.Second):
						t.Fatalf("records completed %v times; one owed no more", seen)
					}
					seen[c.Tag]++
					if c.Tag == stranger {
						if !errors.Is(c.Err, ErrRelayUnavailable) {
							t.Fatalf("record to a non-member: err = %v, want %v", c.Err, ErrRelayUnavailable)
						}
						continue
					}
					if _, _, err := net.openForward(client, &calls[c.Tag], c, time.Now()); err != nil {
						t.Fatalf("record %d: %v", c.Tag, err)
					}
				}
				for tag, n := range seen {
					if n != 1 {
						t.Fatalf("record %d completed %d times", tag, n)
					}
				}
				select {
				case c := <-done:
					t.Fatalf("record %d completed again", c.Tag)
				case <-time.After(time.Millisecond):
				}
			}
		})
	}
}

// overlapBackend answers, once armed, only when a second engine call is in
// progress beside the one asking, or after a second alone, which it notes.
type overlapBackend struct {
	mu    sync.Mutex
	armed bool
	in    int
	alone bool
	met   chan struct{}
}

func (b *overlapBackend) Search(string, string, time.Time) ([]searchengine.Result, error) {
	b.mu.Lock()
	if !b.armed {
		b.mu.Unlock()
		return nil, nil
	}
	if b.in++; b.in == 2 {
		close(b.met)
	}
	b.mu.Unlock()
	select {
	case <-b.met:
	case <-time.After(time.Second):
		b.mu.Lock()
		b.alone = true
		b.mu.Unlock()
	}
	return nil, nil
}

// TestDirectSubmitServesBesideTheSubmitter: with GOMAXPROCS >= 2 a helper
// serves records of an in-process batch beside the submitting goroutine.
// Each engine call waits for a second one to be in progress; a batch served
// one record after the other would make every call wait alone.
func TestDirectSubmitServesBesideTheSubmitter(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a helper is started only while a second processor can run it")
	}
	gate := &overlapBackend{met: make(chan struct{})}
	net, err := NewNetwork(NetworkOptions{
		Nodes:        4,
		Seed:         75,
		Backend:      gate,
		LatencyModel: transport.NewModel(75, nil, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	net.claimWithin = time.Hour // only the helper Submit starts may serve beside it
	ids := net.NodeIDs()
	client := net.Node(ids[0])
	batch, calls := directBatchOf(t, net, client, ids[1:3], []byte("overlap probe"))
	gate.mu.Lock()
	gate.armed = true
	gate.mu.Unlock()

	done := make(chan transport.Completion, len(batch))
	net.submit.Submit(client.id, t0, batch, done)
	for range batch {
		c := <-done
		if _, _, err := net.openForward(client, &calls[c.Tag], c, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	gate.mu.Lock()
	defer gate.mu.Unlock()
	if gate.alone {
		t.Fatal("a record was served while no other was")
	}
}

// sleepyBackend answers, once armed, after a wall-clock wait: an engine
// across the network, or one the relay's watchdog has yet to cut.
type sleepyBackend struct{ wait atomic.Int64 }

func (b *sleepyBackend) Search(string, string, time.Time) ([]searchengine.Result, error) {
	time.Sleep(time.Duration(b.wait.Load()))
	return nil, nil
}

// TestDirectSubmitWaitingEngine: over an engine that answers only after a
// wait, an in-process search at k = 7 takes about one engine call, not the
// k+1 calls its records would take one after the other, nor the
// (k+1)/GOMAXPROCS they would take on the submitter and its helpers alone:
// a record nobody has claimed within claimWithin gets a worker of its own.
func TestDirectSubmitWaitingEngine(t *testing.T) {
	const engineWait = 100 * time.Millisecond
	for _, procs := range []int{1, max(2, runtime.GOMAXPROCS(0))} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			engine := &sleepyBackend{}
			net, err := NewNetwork(NetworkOptions{
				Nodes:        16,
				Seed:         77,
				Backend:      engine,
				LatencyModel: transport.NewModel(77, nil, 0),
				AnalyzerFor: func(string) *sensitivity.Analyzer {
					return sensitivity.NewAnalyzer(alwaysSensitive{}, nil, 7)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			net.BootstrapFromTrending(getWorld(t).uni, 24, 77)
			node := net.Node(net.NodeIDs()[0])
			for i := 0; i < 64; i++ {
				searchKMax(t, node) // attest every pair, so every path is submitted
			}
			engine.wait.Store(int64(engineWait))
			for i := 0; i < 3; i++ {
				start := time.Now()
				searchKMax(t, node)
				if took := time.Since(start); took > 2*engineWait {
					t.Fatalf("a search at k=7 over a %v engine took %v, want about one engine call", engineWait, took)
				}
			}
		})
	}
}

// TestDirectSubmitAllocs: a warm in-process Submit allocates nothing of its
// own: eight records sealed, submitted and opened cost what the same eight
// cost as blocking forwards (the relay's engine call and nothing else). The
// relays' tables are small, so they are full and stop growing during the
// warm-up. AllocsPerRun runs on one processor, where the caller serves the
// whole batch; a helper's hand-off is workers.Pool.Go, pinned at zero by
// TestPoolGoAllocs.
func TestDirectSubmitAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	net, err := NewNetwork(NetworkOptions{
		Nodes:        10,
		Seed:         76,
		Backend:      NullBackend{},
		LatencyModel: transport.NewModel(76, nil, 0),
		TableSize:    16,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := net.NodeIDs()
	client, relays := net.Node(ids[0]), ids[1:9]
	query := []byte("allocation probe")
	batch, calls := directBatchOf(t, net, client, relays, query)
	done := make(chan transport.Completion, len(batch))
	submit := func() {
		net.submit.Submit(client.id, t0, batch, done)
		for range batch {
			c := <-done
			if _, _, err := net.openForward(client, &calls[c.Tag], c, time.Now()); err != nil {
				t.Fatal(err)
			}
		}
	}
	submitRound := func() {
		batch = batch[:0]
		for i, relay := range relays {
			record, err := net.sealForward(client, relay, query, true, false, time.Now(), &calls[i])
			if err != nil {
				t.Fatal(err)
			}
			batch = append(batch, transport.Submission{To: relay, Payload: record, Tag: i})
		}
		submit()
	}
	forwardRound := func() {
		for _, relay := range relays {
			if _, _, err := net.forward(client, relay, query, t0, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit() // the batch directBatchOf sealed
	for i := 0; i < 64; i++ {
		submitRound() // fill the tables, the frame pool and the buffers
		forwardRound()
	}
	perForwards := testing.AllocsPerRun(200, forwardRound)
	if n := testing.AllocsPerRun(200, submitRound); n > perForwards {
		t.Errorf("a batch of eight through the in-process Submit allocates %.2f times, eight blocking forwards %.2f", n, perForwards)
	}
}

// BenchmarkSearchSerialKMax times one in-process search in flight at a time,
// at k = 7 over the test world's engine: the unloaded latency of the direct
// conduit, where how the k+1 serves share the cores sets the time.
func BenchmarkSearchSerialKMax(b *testing.B) {
	w := getWorld(b)
	net, err := NewNetwork(NetworkOptions{
		Nodes:        16,
		Seed:         74,
		Backend:      w.engine,
		LatencyModel: transport.NewModel(74, nil, 0),
		AnalyzerFor: func(string) *sensitivity.Analyzer {
			return sensitivity.NewAnalyzer(alwaysSensitive{}, nil, 7)
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	net.BootstrapFromTrending(w.uni, 24, 74)
	node := net.Node(net.NodeIDs()[0])
	search := func() {
		res, err := node.Search("kidney dialysis treatment", t0)
		if err != nil || res.K != 7 {
			b.Fatalf("search: K = %v, err = %v", res, err)
		}
	}
	for i := 0; i < 64; i++ {
		search()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
	}
}
