package rps

import (
	"math/rand"
	"sort"
	"sync"
)

// Network is the in-process driver of the peer-sampling overlay, and the
// only one: it runs gossip rounds across a set of nodes, delivering exchange
// buffers directly. Node failures are modelled by marking nodes dead;
// exchanges with dead nodes fail and the healer removes their descriptors
// over subsequent rounds. Membership is dynamic: Add admits a node mid-run
// (it converges through gossip like a daemon joining from bootstrap seeds),
// Remove takes one out and the survivors age its descriptors away. What the
// links between nodes do to an exchange is the caller's: SetDropRate for
// uniform loss, SetLink for anything with structure (partitions, a latency
// matrix, refusal).
type Network struct {
	mu    sync.Mutex
	nodes map[NodeID]*Node
	dead  map[NodeID]struct{}
	// seeds is the bootstrap set of a seeded network (empty otherwise): what
	// a joining node starts from and what a stranded one falls back to.
	seeds []NodeID
	rng   *rand.Rand
	round int
	seed  int64
	cfg   Config
	born  int // total nodes ever created; seeds node randomness uniquely
	drop  float64
	link  func(from, to NodeID) bool
}

// NewNetwork creates an overlay of n nodes. Each node is bootstrapped with a
// small random sample of other nodes, like the public-repository bootstrap
// of §V-D.
func NewNetwork(n int, cfg Config, seed int64) *Network {
	return newNetwork(n, 0, cfg, seed, rand.New(rand.NewSource(seed)))
}

// NewSeededNetwork creates an overlay of n nodes in which only the first
// `seeds` nodes are mutually known at start; every other node's initial
// view holds the seeds alone, the way a networked daemon starts from a
// -bootstrap list. Convergence to a connected overlay happens through the
// gossip rounds, not through construction — which is what the convergence
// tests measure. A node whose view empties mid-run falls back to the seeds
// (Round), and Add bootstraps from them by default.
//
// seed derives the nodes' randomness; driver is the stream the round order
// and the drop rolls are drawn from. The caller keeps driver and may draw
// its own between-round choices from it (who leaves, who is partitioned), so
// a whole churn scenario replays from one stream; salt it apart from seed.
func NewSeededNetwork(n, seeds int, cfg Config, seed int64, driver *rand.Rand) *Network {
	return newNetwork(n, min(max(seeds, 1), n), cfg, seed, driver)
}

func newNetwork(n, seeds int, cfg Config, seed int64, rng *rand.Rand) *Network {
	cfg.applyDefaults()
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = Name(i)
	}
	net := &Network{
		nodes: make(map[NodeID]*Node, n),
		dead:  make(map[NodeID]struct{}),
		seeds: ids[:seeds],
		rng:   rng,
		seed:  seed,
		cfg:   cfg,
	}
	bootSize := min(cfg.ViewSize, n-1)
	for i, id := range ids {
		var boot []NodeID
		if seeds > 0 {
			// Seeded bootstrap: everyone starts from the seed set (seeds
			// know each other, and themselves are filtered by NewNode).
			boot = net.seeds
		} else {
			perm := rng.Perm(n)
			for _, j := range perm {
				if j == i {
					continue
				}
				boot = append(boot, ids[j])
				if len(boot) >= bootSize {
					break
				}
			}
		}
		nodeCfg := cfg
		nodeCfg.Seed = seed + int64(i)*7919
		net.nodes[id] = NewNode(id, boot, nodeCfg)
	}
	net.born = n
	return net
}

// Name returns the canonical identifier of the i-th overlay node
// ("node0000", "node0001", ...). Exported so drivers outside the package
// (benchmarks, resolvers) can name nodes without duplicating the format.
func Name(i int) NodeID {
	const digits = "0123456789"
	buf := [8]byte{'n', 'o', 'd', 'e', '0', '0', '0', '0'}
	for p := 7; p >= 4 && i > 0; p-- {
		buf[p] = digits[i%10]
		i /= 10
	}
	return NodeID(buf[:])
}

// Add admits a new node mid-run, bootstrapped from the given peers (or, when
// bootstrap is empty, from the seed set of a seeded network, else from a
// random sample of current members — the public-repository fallback). It
// returns the new node. Safe to call between rounds while the overlay runs.
func (net *Network) Add(id NodeID, bootstrap []NodeID) *Node {
	net.mu.Lock()
	defer net.mu.Unlock()
	if n := net.nodes[id]; n != nil {
		return n
	}
	if len(bootstrap) == 0 {
		bootstrap = net.seeds
	}
	if len(bootstrap) == 0 {
		ids := net.sortedLocked(true)
		net.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		bootstrap = ids[:min(net.cfg.ViewSize, len(ids))]
	}
	nodeCfg := net.cfg
	nodeCfg.Seed = net.seed + int64(net.born)*7919
	net.born++
	n := NewNode(id, bootstrap, nodeCfg)
	net.nodes[id] = n
	delete(net.dead, id) // a re-join sheds the dead mark
	return n
}

// Remove takes a node out of the overlay (graceful leave): it stops
// gossiping immediately and the survivors' healer ages its descriptors out
// over the following rounds.
func (net *Network) Remove(id NodeID) {
	net.mu.Lock()
	defer net.mu.Unlock()
	delete(net.nodes, id)
	delete(net.dead, id)
}

// SetDropRate makes the given fraction of exchanges fail silently (message
// loss), drawn from the driver's seeded randomness so runs stay
// deterministic. The initiator treats a dropped exchange like an
// unresponsive peer.
func (net *Network) SetDropRate(p float64) {
	net.mu.Lock()
	defer net.mu.Unlock()
	net.drop = p
}

// SetLink installs the fate of individual exchanges: link is called once for
// every exchange whose peer is a live member and which the drop roll spared,
// and the exchange is delivered only if it returns true — otherwise the
// initiator sees an unresponsive peer. It runs on the round's goroutine with
// no Network lock held, so it may read the overlay (Node, Alive) and keep
// state of its own. Nil, the default, delivers everything and draws nothing
// from the driver's randomness.
func (net *Network) SetLink(link func(from, to NodeID) bool) {
	net.mu.Lock()
	defer net.mu.Unlock()
	net.link = link
}

// Node returns the node with the given ID, or nil.
func (net *Network) Node(id NodeID) *Node {
	net.mu.Lock()
	defer net.mu.Unlock()
	return net.nodes[id]
}

// NodeIDs returns all node IDs, sorted.
func (net *Network) NodeIDs() []NodeID {
	net.mu.Lock()
	defer net.mu.Unlock()
	return net.sortedLocked(false)
}

// sortedLocked returns a fresh sorted slice of the member IDs, or of the
// alive ones only. Caller holds net.mu.
func (net *Network) sortedLocked(aliveOnly bool) []NodeID {
	ids := make([]NodeID, 0, len(net.nodes))
	for id := range net.nodes {
		if _, dead := net.dead[id]; !dead || !aliveOnly {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Kill marks a node dead: it stops gossiping and stops answering exchanges.
func (net *Network) Kill(id NodeID) {
	net.mu.Lock()
	defer net.mu.Unlock()
	net.dead[id] = struct{}{}
}

// Alive reports whether a node is alive.
func (net *Network) Alive(id NodeID) bool {
	net.mu.Lock()
	defer net.mu.Unlock()
	_, dead := net.dead[id]
	return !dead
}

// Round runs one gossip round: every alive node ages its view and initiates
// one exchange with its selected peer. Drop decisions (SetDropRate) are
// drawn up front from the driver's seeded randomness, so a round is a pure
// function of the seed, the membership history and the link. In a seeded
// network a node whose view has emptied — drops and failures took every
// entry — merges the live seeds back in instead of exchanging, exactly what
// a daemon does with its -bootstrap list, so it re-enters the overlay
// instead of staying isolated forever; Round returns those nodes in round
// order.
func (net *Network) Round() (rebootstrapped []NodeID) {
	net.mu.Lock()
	ids := net.sortedLocked(true)
	net.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	var dropped []bool
	if net.drop > 0 {
		dropped = make([]bool, len(ids))
		for i := range dropped {
			dropped[i] = net.rng.Float64() < net.drop
		}
	}
	net.round++
	link := net.link
	net.mu.Unlock()

	for i, id := range ids {
		node := net.Node(id)
		if node == nil {
			continue // removed mid-round
		}
		node.Tick()
		peerID, ok := node.SelectPeer()
		if !ok {
			if len(net.seeds) > 0 {
				var seeds []Descriptor
				for _, sid := range net.seeds {
					if sid != id && net.Node(sid) != nil && net.Alive(sid) {
						seeds = append(seeds, Descriptor{ID: sid, Age: 0})
					}
				}
				node.Merge(seeds)
				rebootstrapped = append(rebootstrapped, id)
			}
			continue
		}
		peer := net.Node(peerID)
		if peer == nil || !net.Alive(peerID) || (dropped != nil && dropped[i]) ||
			(link != nil && !link(id, peerID)) {
			node.FailExchange(peerID)
			continue
		}
		buffer := node.InitiateExchange()
		reply := peer.HandleExchange(buffer)
		node.CompleteExchange(reply)
	}
	return rebootstrapped
}

// Run executes n gossip rounds.
func (net *Network) Run(rounds int) {
	for i := 0; i < rounds; i++ {
		net.Round()
	}
}

// Rounds returns the number of rounds executed.
func (net *Network) Rounds() int {
	net.mu.Lock()
	defer net.mu.Unlock()
	return net.round
}

// InDegrees returns, for every member, how many alive members hold its
// descriptor — the overlay's in-degree distribution, which must stay
// balanced for CYCLOSA's load spreading. The nodes in without are taken out
// of the graph first: their views are not counted and they get no entry.
func (net *Network) InDegrees(without ...NodeID) map[NodeID]int {
	net.mu.Lock()
	defer net.mu.Unlock()
	deg := make(map[NodeID]int, len(net.nodes))
	for id := range net.nodes {
		deg[id] = 0
	}
	for _, id := range without {
		delete(deg, id)
	}
	for id, node := range net.nodes {
		_, dead := net.dead[id]
		if _, in := deg[id]; dead || !in {
			continue
		}
		for _, d := range node.View() {
			if _, in := deg[d.ID]; in {
				deg[d.ID]++
			}
		}
	}
	return deg
}

// Reachable returns the number of alive members reachable from start by
// following view edges — the overlay connectivity check. The nodes in
// without (distinct, none of them start) are taken out of the graph first.
func (net *Network) Reachable(start NodeID, without ...NodeID) int {
	net.mu.Lock()
	defer net.mu.Unlock()
	if _, dead := net.dead[start]; dead {
		return 0
	}
	// Marking the excluded nodes seen keeps the walk off them; they are
	// subtracted again at the end.
	seen := map[NodeID]struct{}{start: {}}
	for _, id := range without {
		seen[id] = struct{}{}
	}
	frontier := []NodeID{start}
	for len(frontier) > 0 {
		id := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		node := net.nodes[id]
		if node == nil {
			continue
		}
		for _, d := range node.View() {
			if _, dead := net.dead[d.ID]; dead || net.nodes[d.ID] == nil {
				continue
			}
			if _, ok := seen[d.ID]; ok {
				continue
			}
			seen[d.ID] = struct{}{}
			frontier = append(frontier, d.ID)
		}
	}
	return len(seen) - len(without)
}
