package rps

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// NodeID identifies a node in the overlay.
type NodeID string

// Descriptor is one view entry: a node, where to reach it, and the age of
// the information.
type Descriptor struct {
	// ID is the described node.
	ID NodeID
	// Addr is the node's transport address (empty for in-process overlays,
	// a TCP host:port for the networked membership plane). Descriptors
	// gossip addresses along with identities, which is what lets a node dial
	// peers it has never met.
	Addr string
	// Age counts gossip rounds since the descriptor was created; fresher is
	// smaller.
	Age int
}

// Config holds the protocol parameters.
type Config struct {
	// ViewSize is C, the partial view size (default 16).
	ViewSize int
	// Healer is H, the number of oldest descriptors replaced per exchange
	// (default 1). Higher H removes dead nodes faster.
	Healer int
	// Swapper is S, the number of sent descriptors removed after an
	// exchange (default 5). Higher S lowers correlation between views.
	Swapper int
	// Seed drives the node's randomness.
	Seed int64
	// Addr is the transport address this node advertises in the self
	// descriptor it gossips (empty for in-process overlays).
	Addr string
	// OnBlacklist, when non-nil, fires exactly once per peer on its
	// not-blacklisted → blacklisted transition, whichever path triggered it
	// (protocol deadline, attestation verdict, upper-layer report). The
	// accounting plane hooks this to record ledger evidence for every
	// blacklist without each call site charging it separately. Called
	// outside the node lock; implementations may call back into the node.
	OnBlacklist func(NodeID)
}

func (c *Config) applyDefaults() {
	if c.ViewSize == 0 {
		c.ViewSize = 16
	}
	if c.Healer == 0 {
		c.Healer = 1
	}
	if c.Swapper == 0 {
		c.Swapper = 5
	}
}

// Node is one participant in the peer-sampling overlay. All methods are safe
// for concurrent use.
type Node struct {
	id  NodeID
	cfg Config

	mu   sync.Mutex
	view []Descriptor
	rng  *rand.Rand
	// lastSent remembers the descriptors sent in the most recent exchange,
	// consumed by the swapper rule.
	lastSent []Descriptor
	// blacklist holds peers this node refuses to keep in its view
	// (unresponsive relays, §VI-b).
	blacklist map[NodeID]struct{}
	// perm is AppendSample's permutation scratch.
	perm []int
}

// NewNode creates a node with the given bootstrap peers in its initial view
// (the public-repository bootstrap of §V-D).
func NewNode(id NodeID, bootstrap []NodeID, cfg Config) *Node {
	cfg.applyDefaults()
	n := &Node{
		id:        id,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed ^ int64(hashID(id)))),
		blacklist: make(map[NodeID]struct{}),
	}
	for _, b := range bootstrap {
		if b == id {
			continue
		}
		n.view = append(n.view, Descriptor{ID: b, Age: 0})
		if len(n.view) >= cfg.ViewSize {
			break
		}
	}
	return n
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Addr returns the transport address the node advertises in its gossiped
// self descriptor.
func (n *Node) Addr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cfg.Addr
}

// SetAddr updates the advertised transport address. Daemons that listen on
// an ephemeral port (":0") learn their real address only after binding, so
// the advertised address may be set after construction but before the first
// exchange.
func (n *Node) SetAddr(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.cfg.Addr = addr
}

// View returns a copy of the current view.
func (n *Node) View() []Descriptor {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Descriptor, len(n.view))
	copy(out, n.view)
	return out
}

// Blacklist removes a peer from the view and refuses to re-admit it.
// CYCLOSA blacklists peers that do not respond within a deadline (§VI-b).
// Because the exchange buffers are built from the view, a blacklisted peer
// is also gossip-suppressed: this node never forwards its descriptor again.
func (n *Node) Blacklist(id NodeID) {
	n.mu.Lock()
	_, already := n.blacklist[id]
	n.blacklist[id] = struct{}{}
	n.view = removeID(n.view, id)
	n.mu.Unlock()
	if !already && n.cfg.OnBlacklist != nil {
		n.cfg.OnBlacklist(id)
	}
}

// IsBlacklisted reports whether this node refuses to keep id in its view.
func (n *Node) IsBlacklisted(id NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, bad := n.blacklist[id]
	return bad
}

// BlacklistedIDs returns the peers this node has blacklisted, sorted.
func (n *Node) BlacklistedIDs() []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]NodeID, 0, len(n.blacklist))
	for id := range n.blacklist {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Merge admits descriptors into the view outside a full exchange — the
// networked bootstrap path, where a joining node seeds its view from the
// reply of a bootstrap exchange. The usual view-selection rule applies
// (dedup freshest, blacklist filter, shrink to ViewSize).
func (n *Node) Merge(descs []Descriptor) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mergeLocked(descs)
}

// Sample returns up to k distinct random peers from the view. It returns
// fewer than k if the view is smaller.
func (n *Node) Sample(k int) []NodeID {
	if k <= 0 {
		return nil
	}
	out := n.AppendSample(make([]NodeID, 0, min(k, n.cfg.ViewSize)), k)
	if len(out) == 0 {
		return nil
	}
	return out
}

// AppendSample is Sample appending to dst: up to k distinct random peers
// from the view, in the order and with the draws of rand.Perm over the
// view, whose first k indices it takes. The permutation lives in the node's
// scratch, so a dst with room costs no allocation.
func (n *Node) AppendSample(dst []NodeID, k int) []NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	if k <= 0 || len(n.view) == 0 {
		return dst
	}
	// rand.Perm, into scratch: the same Intn per index, so the node's rng
	// stream is unchanged.
	if cap(n.perm) < len(n.view) {
		n.perm = make([]int, len(n.view))
	}
	perm := n.perm[:len(n.view)]
	for i := range perm {
		j := n.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	for _, i := range perm[:min(k, len(perm))] {
		dst = append(dst, n.view[i].ID)
	}
	return dst
}

// SelectPeer returns the exchange target for this round: the peer with the
// oldest descriptor (tail peer selection maximizes self-healing).
func (n *Node) SelectPeer() (NodeID, bool) {
	d, ok := n.SelectPeerDescriptor()
	return d.ID, ok
}

// SelectPeerDescriptor is SelectPeer returning the full descriptor — the
// networked driver needs the peer's address, not just its identity.
func (n *Node) SelectPeerDescriptor() (Descriptor, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.view) == 0 {
		return Descriptor{}, false
	}
	oldest := 0
	for i, d := range n.view {
		if d.Age > n.view[oldest].Age {
			oldest = i
		}
	}
	return n.view[oldest], true
}

// InitiateExchange prepares the active-side buffer: the node's own fresh
// descriptor plus up to ViewSize/2-1 view entries, with the H oldest moved
// out of the way first.
func (n *Node) InitiateExchange() []Descriptor {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.makeBufferLocked()
}

// HandleExchange is the passive side: it returns the reply buffer and merges
// the received one.
func (n *Node) HandleExchange(buffer []Descriptor) []Descriptor {
	n.mu.Lock()
	defer n.mu.Unlock()
	reply := n.makeBufferLocked()
	n.mergeLocked(buffer)
	return reply
}

// CompleteExchange merges the reply received by the active side.
func (n *Node) CompleteExchange(reply []Descriptor) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.mergeLocked(reply)
}

// FailExchange is called by the driver when the selected peer did not
// respond: the peer is removed from the view (and the round's aging still
// applies via Tick).
func (n *Node) FailExchange(peer NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.view = removeID(n.view, peer)
}

// Tick increments the age of every view entry; the driver calls it once per
// gossip round.
func (n *Node) Tick() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range n.view {
		n.view[i].Age++
	}
}

// makeBufferLocked builds the exchange buffer and records what was sent for
// the swapper rule. Caller holds n.mu.
func (n *Node) makeBufferLocked() []Descriptor {
	// Shuffle, then move the H oldest to the tail so they are not sent.
	n.rng.Shuffle(len(n.view), func(i, j int) { n.view[i], n.view[j] = n.view[j], n.view[i] })
	h := n.cfg.Healer
	if h > len(n.view) {
		h = len(n.view)
	}
	if h > 0 && len(n.view) > 1 {
		sort.SliceStable(n.view, func(i, j int) bool { return n.view[i].Age < n.view[j].Age })
		// view is now youngest-first; the H oldest sit at the tail already.
	}
	half := n.cfg.ViewSize/2 - 1
	if half < 0 {
		half = 0
	}
	if half > len(n.view) {
		half = len(n.view)
	}
	buffer := make([]Descriptor, 0, half+1)
	buffer = append(buffer, Descriptor{ID: n.id, Addr: n.cfg.Addr, Age: 0})
	buffer = append(buffer, n.view[:half]...)

	n.lastSent = make([]Descriptor, len(buffer))
	copy(n.lastSent, buffer)
	return buffer
}

// mergeLocked applies the view-selection rule: append the received buffer,
// deduplicate keeping the freshest descriptor, then shrink back to ViewSize
// by removing (in order) the H oldest, the S first-sent, and finally random
// entries. Caller holds n.mu.
func (n *Node) mergeLocked(buffer []Descriptor) {
	merged := make([]Descriptor, 0, len(n.view)+len(buffer))
	merged = append(merged, n.view...)
	for _, d := range buffer {
		if d.ID == n.id {
			continue
		}
		if _, bad := n.blacklist[d.ID]; bad {
			continue
		}
		merged = append(merged, d)
	}

	// Deduplicate keeping the freshest (lowest age). A fresher descriptor
	// without an address inherits the known one — in-process descriptors
	// carry no address, and they must not erase a dialable one.
	best := make(map[NodeID]int, len(merged)) // id -> index in dedup
	dedup := merged[:0]
	for _, d := range merged {
		if i, seen := best[d.ID]; seen {
			if d.Age < dedup[i].Age {
				if d.Addr == "" {
					d.Addr = dedup[i].Addr
				}
				dedup[i] = d
			}
			continue
		}
		best[d.ID] = len(dedup)
		dedup = append(dedup, d)
	}
	n.view = dedup

	// Remove min(H, surplus) oldest.
	surplus := func() int { return len(n.view) - n.cfg.ViewSize }
	if h := minInt(n.cfg.Healer, surplus()); h > 0 {
		sort.SliceStable(n.view, func(i, j int) bool { return n.view[i].Age > n.view[j].Age })
		n.view = n.view[h:]
	}
	// Remove min(S, surplus) of the descriptors we just sent.
	if s := minInt(n.cfg.Swapper, surplus()); s > 0 {
		removed := 0
		for _, sent := range n.lastSent {
			if removed >= s {
				break
			}
			if sent.ID == n.id {
				continue
			}
			before := len(n.view)
			n.view = removeID(n.view, sent.ID)
			if len(n.view) < before {
				removed++
			}
		}
	}
	// Remove random entries until the view fits.
	for surplus() > 0 {
		i := n.rng.Intn(len(n.view))
		n.view[i] = n.view[len(n.view)-1]
		n.view = n.view[:len(n.view)-1]
	}
}

func removeID(view []Descriptor, id NodeID) []Descriptor {
	out := view[:0]
	for _, d := range view {
		if d.ID != id {
			out = append(out, d)
		}
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func hashID(id NodeID) uint64 {
	// FNV-1a, inlined to keep the package dependency-free.
	var h uint64 = 14695981039346656037
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	return h
}

// String renders a descriptor.
func (d Descriptor) String() string { return fmt.Sprintf("%s@%d", d.ID, d.Age) }
