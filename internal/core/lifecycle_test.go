package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func lifecycleNet(t *testing.T, nodes int) *Network {
	t.Helper()
	net, err := NewNetwork(NetworkOptions{Nodes: nodes, Seed: 42, Backend: NullBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestJoinBecomesRelay: a node joined mid-run converges into views and both
// relays queries and gets its own queries relayed.
func TestJoinBecomesRelay(t *testing.T) {
	net := lifecycleNet(t, 6)
	now := time.Unix(0, 0)

	late, err := net.Join("latecomer")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Join("latecomer"); err == nil {
		t.Fatal("double join accepted")
	}
	net.Gossip(20)

	if got := len(net.NodeIDs()); got != 7 {
		t.Fatalf("member count after join: %d", got)
	}
	if net.Node("latecomer") != late {
		t.Fatal("joined node not resolvable")
	}

	// The latecomer searches through relays it discovered by gossip.
	res, err := late.Search("join probe", now)
	if err != nil {
		t.Fatalf("joined node search: %v", err)
	}
	if res.RealRelay == "" || res.RealRelay == "latecomer" {
		t.Fatalf("real relay = %q", res.RealRelay)
	}

	// An original member forwards through the latecomer directly: the new
	// node serves as a relay (attestation, session, engine path all work).
	client := net.Node(net.NodeIDs()[0])
	if err := net.RelayRoundTrip(client, "latecomer", "reverse probe", now); err != nil {
		t.Fatalf("forward through joined relay: %v", err)
	}
	if late.Stats().Relayed == 0 {
		t.Fatal("joined relay counted no forwards")
	}
}

// TestChurnUnderConcurrentForwards: joins and kills race 16 forwarding
// goroutines; every search must either complete or fail with a clean
// protocol error.
func TestChurnUnderConcurrentForwards(t *testing.T) {
	net := lifecycleNet(t, 10)
	now := time.Unix(0, 0)
	ids := net.NodeIDs()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := net.Node(ids[w%len(ids)])
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := client.Search("churn probe", now)
				if err != nil && !errors.Is(err, ErrRelayFailed) && !errors.Is(err, ErrNoPeers) {
					t.Errorf("worker %d: unclean failure: %v", w, err)
					return
				}
			}
		}(w)
	}

	for i := 0; i < 6; i++ {
		id := fmt.Sprintf("churner%d", i)
		if _, err := net.Join(id); err != nil {
			t.Errorf("join %d: %v", i, err)
			break
		}
		net.Gossip(2)
		net.Kill(id)
		net.Gossip(2)
	}
	close(stop)
	wg.Wait()
}
