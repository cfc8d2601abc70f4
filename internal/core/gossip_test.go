package core

import (
	"testing"
	"time"
)

// gossipWhile runs one gossip round every interval on its own goroutine,
// the way a long-running deployment keeps the overlay a continuously
// changing random topology (§V-E), until the returned stop is called; stop
// returns once the goroutine has exited.
func gossipWhile(net *Network, interval time.Duration) (stop func()) {
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				net.Gossip(1)
			case <-quit:
				return
			}
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}

// Searches proceed correctly while the overlay is being reshuffled
// concurrently.
func TestSearchDuringGossip(t *testing.T) {
	w := getWorld(t)
	net := newTestNetwork(t, 12, w, 2)
	defer gossipWhile(net, time.Millisecond)()

	node := net.Node(net.NodeIDs()[0])
	for i := 0; i < 20; i++ {
		if _, err := node.Search(w.uni.Topic("movies").Terms[i%20], t0); err != nil {
			t.Fatalf("search %d during gossip: %v", i, err)
		}
	}
}
