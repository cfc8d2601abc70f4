package rps

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSeededBootstrapConverges: an overlay where only 2 seeds are mutually
// known must still become fully connected through gossip.
func TestSeededBootstrapConverges(t *testing.T) {
	net := NewSeededNetwork(48, 2, Config{}, 11, rand.New(rand.NewSource(11)))
	net.Run(25)
	if got := net.Reachable(Name(0)); got != 48 {
		t.Fatalf("after 25 rounds only %d/48 nodes reachable from seed", got)
	}
	for _, id := range net.NodeIDs() {
		if vs := net.Node(id).ViewSize(); vs == 0 {
			t.Fatalf("node %s has an empty view after convergence", id)
		}
	}
}

// TestAddJoinsThroughGossip: a node added mid-run becomes reachable and
// fills its view from the overlay.
func TestAddJoinsThroughGossip(t *testing.T) {
	net := NewNetwork(16, Config{}, 5)
	net.Run(10)
	joined := Name(100)
	net.Add(joined, []NodeID{Name(0), Name(1)}) // bootstrap from two seeds only
	net.Run(15)
	deg := net.InDegrees()
	if deg[joined] == 0 {
		t.Fatal("joined node never entered any view")
	}
	if net.Node(joined).ViewSize() < 4 {
		t.Fatalf("joined node's view stayed tiny: %d", net.Node(joined).ViewSize())
	}
	if got, want := net.Reachable(joined), 17; got != want {
		t.Fatalf("reachable from joined node: %d, want %d", got, want)
	}
}

// TestRemoveHealsOverlay: a removed node's descriptors age out of the
// survivors' views.
func TestRemoveHealsOverlay(t *testing.T) {
	net := NewNetwork(16, Config{}, 7)
	net.Run(10)
	gone := Name(3)
	net.Remove(gone)
	net.Run(30)
	if net.Node(gone) != nil {
		t.Fatal("removed node still resolvable")
	}
	for _, id := range net.NodeIDs() {
		for _, d := range net.Node(id).View() {
			if d.ID == gone {
				t.Fatalf("node %s still holds the removed node after 30 heal rounds", id)
			}
		}
	}
}

// TestDropRateDeterminism: the same seed with the same drop rate yields the
// same views.
func TestDropRateDeterminism(t *testing.T) {
	run := func() map[NodeID][]Descriptor {
		net := NewSeededNetwork(24, 2, Config{}, 99, rand.New(rand.NewSource(99)))
		net.SetDropRate(0.1)
		net.Run(20)
		out := make(map[NodeID][]Descriptor)
		for _, id := range net.NodeIDs() {
			out[id] = net.Node(id).View()
		}
		return out
	}
	a, b := run(), run()
	for id, va := range a {
		vb := b[id]
		if len(va) != len(vb) {
			t.Fatalf("node %s: view size %d vs %d across identical runs", id, len(va), len(vb))
		}
		for i := range va {
			if va[i] != vb[i] {
				t.Fatalf("node %s: view entry %d differs across identical runs", id, i)
			}
		}
	}
}

// TestBlacklistSuppressionInExchanges: a blacklisted peer neither re-enters
// the view nor is forwarded to others.
func TestBlacklistSuppressionInExchanges(t *testing.T) {
	n := NewNode("self", []NodeID{"a", "b", "bad"}, Config{Seed: 1})
	n.Blacklist("bad")
	if n.IsBlacklisted("a") || !n.IsBlacklisted("bad") {
		t.Fatal("IsBlacklisted wrong")
	}
	n.Merge([]Descriptor{{ID: "bad", Age: 0}, {ID: "c", Age: 0}})
	for _, d := range n.View() {
		if d.ID == "bad" {
			t.Fatal("blacklisted peer re-entered the view via Merge")
		}
	}
	for i := 0; i < 20; i++ {
		for _, d := range n.InitiateExchange() {
			if d.ID == "bad" {
				t.Fatal("blacklisted peer forwarded in an exchange buffer")
			}
		}
	}
	if got := n.BlacklistedIDs(); len(got) != 1 || got[0] != "bad" {
		t.Fatalf("BlacklistedIDs = %v", got)
	}
}

// TestAddrGossip: addresses travel with descriptors and survive merges; a
// fresher address-less descriptor inherits the known address.
func TestAddrGossip(t *testing.T) {
	a := NewNode("a", nil, Config{Seed: 1, Addr: "10.0.0.1:1"})
	b := NewNode("b", []NodeID{"a"}, Config{Seed: 2, Addr: "10.0.0.2:2"})
	if a.Addr() != "10.0.0.1:1" {
		t.Fatalf("Addr() = %q", a.Addr())
	}
	// b initiates with a: a learns b's descriptor including its address.
	buf := b.InitiateExchange()
	reply := a.HandleExchange(buf)
	b.CompleteExchange(reply)
	found := false
	for _, d := range a.View() {
		if d.ID == "b" {
			found = true
			if d.Addr != "10.0.0.2:2" {
				t.Fatalf("b's address lost in exchange: %+v", d)
			}
		}
	}
	if !found {
		t.Fatal("a never learned b")
	}
	// A fresher descriptor without an address must not erase the known one.
	a.Merge([]Descriptor{{ID: "b", Age: 0}})
	for _, d := range a.View() {
		if d.ID == "b" && d.Addr != "10.0.0.2:2" {
			t.Fatalf("address erased by address-less merge: %+v", d)
		}
	}
	// SetAddr updates the advertised self descriptor.
	a.SetAddr("10.9.9.9:9")
	self := a.InitiateExchange()[0]
	if self.ID != "a" || self.Addr != "10.9.9.9:9" {
		t.Fatalf("self descriptor after SetAddr: %+v", self)
	}
	if d, ok := a.SelectPeerDescriptor(); !ok || d.ID == "" {
		t.Fatalf("SelectPeerDescriptor: %+v ok=%v", d, ok)
	}
}

// TestSeededRebootstrap: a node whose view total loss has emptied falls back
// to the seed set — Round reports it — and the overlay re-knits from there
// once the links carry exchanges again.
func TestSeededRebootstrap(t *testing.T) {
	const n, seeds = 24, 2
	net := NewSeededNetwork(n, seeds, Config{}, 5, rand.New(rand.NewSource(5^0x5eed)))
	net.SetDropRate(1)
	var stranded []NodeID
	for r := 0; r < 40 && len(stranded) == 0; r++ {
		stranded = net.Round()
	}
	if len(stranded) == 0 {
		t.Fatal("no node was ever stranded under total loss")
	}
	for _, d := range net.Node(stranded[0]).View() {
		if d.ID != Name(0) && d.ID != Name(1) {
			t.Fatalf("re-bootstrapped view of %s holds %s, want seeds only", stranded[0], d.ID)
		}
	}
	if net.Node(stranded[0]).ViewSize() == 0 {
		t.Fatalf("%s re-bootstrapped to an empty view", stranded[0])
	}
	net.SetDropRate(0)
	net.Run(30)
	if got := net.Reachable(Name(0)); got != n {
		t.Fatalf("after the loss ended only %d/%d nodes reachable from a seed", got, n)
	}
	// An unseeded network has nothing to fall back to and reports nobody.
	plain := NewNetwork(8, Config{}, 5)
	plain.SetDropRate(1)
	for r := 0; r < 40; r++ {
		if got := plain.Round(); len(got) != 0 {
			t.Fatalf("unseeded network re-bootstrapped %v", got)
		}
	}
}

// TestSeededLinkFate: the link closure decides each exchange. A node every
// link refuses ages out of all views while the rest stays whole, and the
// closure is only ever asked about live members.
func TestSeededLinkFate(t *testing.T) {
	const n = 24
	net := NewSeededNetwork(n, 2, Config{}, 9, rand.New(rand.NewSource(9^0x5eed)))
	net.Run(10)
	cut, dead := Name(7), Name(8)
	net.Kill(dead)
	asked := 0
	net.SetLink(func(from, to NodeID) bool {
		asked++
		if to == dead || net.Node(to) == nil {
			t.Errorf("link asked about %s->%s, which is not a live member", from, to)
		}
		return from != cut && to != cut
	})
	net.Run(40)
	if asked == 0 {
		t.Fatal("the link was never consulted")
	}
	if got := net.InDegrees()[cut]; got != 0 {
		t.Fatalf("%d views still hold %s, which no exchange has reached for 40 rounds", got, cut)
	}
	if got, want := net.Reachable(Name(0), cut), n-2; got != want {
		t.Fatalf("%d nodes reachable with %s taken out, want %d (everyone but it and the dead node)", got, cut, want)
	}
	if _, in := net.InDegrees(cut)[cut]; in {
		t.Fatalf("InDegrees(%s) still has an entry for it", cut)
	}
}

// TestLinkDrawsNothing: a link that delivers everything leaves every view
// exactly where no link leaves it — installing one moves no seeded stream.
func TestLinkDrawsNothing(t *testing.T) {
	views := func(link func(from, to NodeID) bool) map[NodeID][]Descriptor {
		net := NewNetwork(24, Config{}, 3)
		net.SetLink(link)
		net.Run(15)
		out := make(map[NodeID][]Descriptor)
		for _, id := range net.NodeIDs() {
			out[id] = net.Node(id).View()
		}
		return out
	}
	if a, b := views(nil), views(func(NodeID, NodeID) bool { return true }); !reflect.DeepEqual(a, b) {
		t.Fatal("an always-deliver link changed the views")
	}
}

// TestSeededConcurrentReaders reads the overlay (views, graph scans) while
// rounds and membership changes run: the locking the round driver relies on,
// for the race detector. The readers draw nothing, so the outcome is still a
// function of the seed.
func TestSeededConcurrentReaders(t *testing.T) {
	net := NewSeededNetwork(64, 2, Config{}, 13, rand.New(rand.NewSource(13^0x5eed)))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := 0; r < 30; r++ {
			net.Add(Name(100+r), nil)
			net.Remove(Name(10 + r))
			net.Round()
		}
	}()
	for {
		select {
		case <-done:
			if got := net.Reachable(Name(0)); got != 64 {
				t.Fatalf("%d/64 nodes reachable after churn", got)
			}
			return
		default:
			net.InDegrees()
			net.Reachable(Name(0))
			for _, id := range net.NodeIDs() {
				if node := net.Node(id); node != nil {
					node.View()
				}
			}
		}
	}
}
