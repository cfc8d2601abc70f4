package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclosa/internal/searchengine"
	"cyclosa/internal/testutil"
)

// putBuf keeps a buffer up to maxPooledBuf and drops a larger one, so one
// oversize record does not leave its buffer circulating.
func TestPutBufDropsOversizeBuffers(t *testing.T) {
	// pooled reports whether a put buffer of capacity size comes back from
	// the pool. A put-then-get on one goroutine returns the buffer just put
	// unless the processor's slot was taken or the goroutine moved to another
	// processor in between, hence the retries.
	pooled := func(size int) bool {
		for try := 0; try < 10; try++ {
			b := make([]byte, 0, size)
			putBuf(&b)
			got := getBuf()
			if got == &b {
				return true
			}
		}
		return false
	}
	if pooled(maxPooledBuf + 1) {
		t.Errorf("a buffer of %d bytes was pooled, want dropped", maxPooledBuf+1)
	}
	// The race detector makes the pool drop puts at random.
	if !testutil.RaceEnabled && !pooled(maxPooledBuf) {
		t.Errorf("a buffer of %d bytes was dropped, want pooled", maxPooledBuf)
	}
}

// keepingBackend keeps every query string the engine ocall hands it.
type keepingBackend struct {
	mu   sync.Mutex
	kept []string
}

func (b *keepingBackend) Search(_, query string, _ time.Time) ([]searchengine.Result, error) {
	b.mu.Lock()
	b.kept = append(b.kept, query)
	b.mu.Unlock()
	return nil, nil
}

// The engine ocall cuts query strings from shared chunks instead of
// allocating each, and a backend may keep what it is handed. Several clients
// relay through one relay until more than three chunks have filled; then the
// relay's pooled buffers are overwritten by traffic of another shape, and
// every string the backend kept must still read what its client sent.
func TestEngineQueryStringsStable(t *testing.T) {
	const clients = 4
	be := &keepingBackend{}
	net, err := NewNetwork(NetworkOptions{Nodes: clients + 1, Seed: 91, Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	ids := net.NodeIDs()
	relay := ids[0]
	now := time.Unix(0, 0)
	query := func(client, i int) string {
		return fmt.Sprintf("client %d query %d %s", client, i, strings.Repeat(string(rune('a'+(client+i)%26)), 40+i%200))
	}
	sent := make(map[string]int)
	total := 0
	perClient := 0
	for total <= 4*queryChunk {
		for c := 0; c < clients; c++ {
			q := query(c, perClient)
			sent[q]++
			total += len(q)
		}
		perClient++
	}

	relayAll := func(query func(client, i int) string) {
		var wg sync.WaitGroup
		errs := make(chan error, clients)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client := net.Node(ids[c+1])
				for i := 0; i < perClient; i++ {
					if err := net.RelayRoundTrip(client, relay, query(c, i), now); err != nil {
						errs <- err
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
	}
	relayAll(query)
	be.mu.Lock()
	kept := be.kept
	be.kept = nil
	be.mu.Unlock()
	relayAll(func(client, i int) string { return strings.Repeat("Z", 1+(client*perClient+i)%300) })

	if len(kept) != len(sent) {
		t.Fatalf("backend kept %d queries, %d were sent", len(kept), len(sent))
	}
	for _, q := range kept {
		if sent[q] == 0 {
			t.Fatalf("kept query %.60q... was never sent, or was sent fewer times", q)
		}
		sent[q]--
	}
}
