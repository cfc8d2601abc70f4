package rps

import (
	"slices"
	"testing"

	"cyclosa/internal/testutil"
)

func TestNewNodeBootstrap(t *testing.T) {
	boot := []NodeID{"a", "b", "c", "self"}
	n := NewNode("self", boot, Config{ViewSize: 8, Seed: 1})
	if n.ID() != "self" {
		t.Errorf("ID = %s", n.ID())
	}
	if len(n.View()) != 3 {
		t.Errorf("view size = %d, want 3 (self excluded)", len(n.View()))
	}
	for _, d := range n.View() {
		if d.ID == "self" {
			t.Error("own descriptor in view")
		}
		if d.Age != 0 {
			t.Error("bootstrap descriptors should be fresh")
		}
	}
}

func TestBootstrapRespectsViewSize(t *testing.T) {
	boot := make([]NodeID, 50)
	for i := range boot {
		boot[i] = Name(i)
	}
	n := NewNode("self", boot, Config{ViewSize: 8, Seed: 1})
	if len(n.View()) != 8 {
		t.Errorf("view size = %d, want 8", len(n.View()))
	}
}

func TestSample(t *testing.T) {
	boot := []NodeID{"a", "b", "c", "d", "e"}
	n := NewNode("self", boot, Config{ViewSize: 8, Seed: 2})
	s := n.Sample(3)
	if len(s) != 3 {
		t.Fatalf("sample size = %d", len(s))
	}
	seen := make(map[NodeID]struct{})
	for _, id := range s {
		if id == "self" {
			t.Error("sampled self")
		}
		if _, dup := seen[id]; dup {
			t.Error("duplicate in sample")
		}
		seen[id] = struct{}{}
	}
	if got := n.Sample(100); len(got) != 5 {
		t.Errorf("oversized sample = %d, want 5", len(got))
	}
	if n.Sample(0) != nil {
		t.Error("Sample(0) should be nil")
	}
	empty := NewNode("alone", nil, Config{Seed: 3})
	if empty.Sample(2) != nil {
		t.Error("empty view sample should be nil")
	}
}

func TestSelectPeerPicksOldest(t *testing.T) {
	n := NewNode("self", []NodeID{"a", "b"}, Config{ViewSize: 8, Seed: 4})
	n.Tick()
	// Manually freshen "a" by merging a fresh descriptor.
	n.CompleteExchange([]Descriptor{{ID: "a", Age: 0}})
	peer, ok := n.SelectPeer()
	if !ok || peer != "b" {
		t.Errorf("SelectPeer = %v %v, want b (oldest)", peer, ok)
	}
	empty := NewNode("alone", nil, Config{Seed: 5})
	if _, ok := empty.SelectPeer(); ok {
		t.Error("empty view should have no peer")
	}
}

func TestBlacklist(t *testing.T) {
	n := NewNode("self", []NodeID{"a", "b"}, Config{ViewSize: 8, Seed: 6})
	n.Blacklist("a")
	for _, d := range n.View() {
		if d.ID == "a" {
			t.Fatal("blacklisted peer still in view")
		}
	}
	// Merging a blacklisted descriptor must not re-admit it.
	n.CompleteExchange([]Descriptor{{ID: "a", Age: 0}})
	for _, d := range n.View() {
		if d.ID == "a" {
			t.Fatal("blacklisted peer re-admitted")
		}
	}
}

func TestOnBlacklistFiresOncePerTransition(t *testing.T) {
	var fired []NodeID
	n := NewNode("self", []NodeID{"a", "b"}, Config{
		ViewSize:    8,
		Seed:        6,
		OnBlacklist: func(id NodeID) { fired = append(fired, id) },
	})
	n.Blacklist("a")
	n.Blacklist("a") // repeat: no second notification
	n.Blacklist("b")
	if len(fired) != 2 || fired[0] != "a" || fired[1] != "b" {
		t.Fatalf("OnBlacklist fired %v, want [a b]", fired)
	}
	// The hook may call back into the node (it fires outside the lock).
	reentrant := NewNode("self2", []NodeID{"x"}, Config{ViewSize: 8, Seed: 7})
	reentrant.cfg.OnBlacklist = func(id NodeID) {
		if !reentrant.IsBlacklisted(id) {
			t.Errorf("hook sees %s not yet blacklisted", id)
		}
	}
	reentrant.Blacklist("x")
}

func TestMergeDeduplicatesKeepingFreshest(t *testing.T) {
	n := NewNode("self", []NodeID{"a"}, Config{ViewSize: 8, Seed: 7})
	n.Tick()
	n.Tick() // a is now age 2
	n.CompleteExchange([]Descriptor{{ID: "a", Age: 1}})
	view := n.View()
	if len(view) != 1 || view[0].Age != 1 {
		t.Errorf("view after merge = %v, want a@1", view)
	}
	// An older duplicate must not replace a fresher entry.
	n.CompleteExchange([]Descriptor{{ID: "a", Age: 9}})
	view = n.View()
	if len(view) != 1 || view[0].Age != 1 {
		t.Errorf("view after stale merge = %v, want a@1", view)
	}
}

func TestViewNeverExceedsSize(t *testing.T) {
	n := NewNode("self", []NodeID{"a", "b", "c"}, Config{ViewSize: 4, Seed: 8})
	for i := 0; i < 20; i++ {
		n.CompleteExchange([]Descriptor{
			{ID: Name(i), Age: i % 3},
			{ID: Name(i + 100), Age: 0},
		})
		if len(n.View()) > 4 {
			t.Fatalf("view grew to %d > 4", len(n.View()))
		}
	}
}

func TestExchangeBufferShape(t *testing.T) {
	boot := make([]NodeID, 12)
	for i := range boot {
		boot[i] = Name(i)
	}
	n := NewNode("self", boot, Config{ViewSize: 12, Seed: 9})
	buf := n.InitiateExchange()
	if len(buf) == 0 || buf[0].ID != "self" || buf[0].Age != 0 {
		t.Fatalf("buffer must start with own fresh descriptor: %v", buf)
	}
	if len(buf) > 12/2 {
		t.Errorf("buffer size = %d, want <= C/2", len(buf))
	}
}

func TestNetworkConnectivity(t *testing.T) {
	net := NewNetwork(60, Config{ViewSize: 10, Seed: 1}, 1)
	net.Run(30)
	for _, id := range []NodeID{"node0000", "node0030", "node0059"} {
		if got := net.Reachable(id); got != 60 {
			t.Errorf("reachable from %s = %d, want 60", id, got)
		}
	}
}

func TestNetworkInDegreeBalance(t *testing.T) {
	net := NewNetwork(60, Config{ViewSize: 10, Seed: 2}, 2)
	net.Run(40)
	deg := net.InDegrees()
	max, min := 0, 1<<30
	for _, d := range deg {
		if d > max {
			max = d
		}
		if d < min {
			min = d
		}
	}
	if min == 0 {
		t.Error("some node has in-degree 0 (isolated)")
	}
	// Mean in-degree equals the view size; a healthy overlay stays within a
	// small factor of it.
	if max > 4*10 {
		t.Errorf("in-degree too skewed: min=%d max=%d", min, max)
	}
}

func TestNetworkHealsDeadNodes(t *testing.T) {
	net := NewNetwork(40, Config{ViewSize: 8, Healer: 2, Seed: 3}, 3)
	net.Run(15)
	// Kill a quarter of the overlay.
	for i := 0; i < 10; i++ {
		net.Kill(Name(i))
	}
	net.Run(40)
	// Dead descriptors must have been healed out of alive views.
	deadRefs := 0
	for _, id := range net.NodeIDs() {
		if !net.Alive(id) {
			continue
		}
		for _, d := range net.Node(id).View() {
			if !net.Alive(d.ID) {
				deadRefs++
			}
		}
	}
	if deadRefs > 4 {
		t.Errorf("alive views still hold %d dead descriptors", deadRefs)
	}
	// The alive part must remain connected.
	if got := net.Reachable("node0020"); got != 30 {
		t.Errorf("alive reachable = %d, want 30", got)
	}
}

func TestNetworkRoundsCounterAndKill(t *testing.T) {
	net := NewNetwork(10, Config{ViewSize: 4, Seed: 4}, 4)
	net.Run(5)
	if net.Rounds() != 5 {
		t.Errorf("Rounds = %d", net.Rounds())
	}
	net.Kill("node0001")
	if net.Alive("node0001") {
		t.Error("killed node still alive")
	}
	if net.Reachable("node0001") != 0 {
		t.Error("dead node should reach nothing")
	}
}

func TestViewsKeepChanging(t *testing.T) {
	// The overlay must keep shuffling (a "continuously changing random
	// topology", §V-E): a node's view after more rounds should differ.
	net := NewNetwork(30, Config{ViewSize: 8, Seed: 5}, 5)
	net.Run(10)
	before := net.Node("node0000").View()
	net.Run(10)
	after := net.Node("node0000").View()
	same := 0
	bset := make(map[NodeID]struct{})
	for _, d := range before {
		bset[d.ID] = struct{}{}
	}
	for _, d := range after {
		if _, ok := bset[d.ID]; ok {
			same++
		}
	}
	if same == len(before) && len(before) == len(after) {
		t.Error("view identical after 10 rounds; overlay not shuffling")
	}
}

func TestDescriptorString(t *testing.T) {
	d := Descriptor{ID: "n1", Age: 3}
	if d.String() != "n1@3" {
		t.Errorf("String = %q", d.String())
	}
}

func TestNodeNameFormat(t *testing.T) {
	if string(Name(0)) != "node0000" || string(Name(42)) != "node0042" || string(Name(9999)) != "node9999" {
		t.Errorf("nodeName wrong: %s %s %s", string(Name(0)), string(Name(42)), string(Name(9999)))
	}
}

// TestAppendSampleMatchesPerm: AppendSample draws exactly what rand.Perm
// over the view draws, so relay choice — and every seeded stream built on
// it — is the one Sample made when it called Perm.
func TestAppendSampleMatchesPerm(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		views := int(seed%23) + 1
		boot := make([]NodeID, views)
		for i := range boot {
			boot[i] = Name(i)
		}
		cfg := Config{ViewSize: 32, Seed: seed}
		got, ref := NewNode("self", boot, cfg), NewNode("self", boot, cfg)
		var dst []NodeID
		for round, k := range []int{1, 3, 8, views, views + 5, 2} {
			dst = got.AppendSample(dst[:0], k)
			idx := ref.rng.Perm(len(ref.view))
			var want []NodeID
			for _, i := range idx[:min(k, len(idx))] {
				want = append(want, ref.view[i].ID)
			}
			if !slices.Equal(dst, want) {
				t.Fatalf("seed %d round %d k=%d: AppendSample = %v, Perm reference = %v", seed, round, k, dst, want)
			}
		}
		if a, b := got.rng.Int63(), ref.rng.Int63(); a != b {
			t.Fatalf("seed %d: rng streams diverged after sampling (%d vs %d)", seed, a, b)
		}
	}
}

// TestAppendSampleAllocs: with room in dst, sampling allocates nothing.
func TestAppendSampleAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	boot := make([]NodeID, 20)
	for i := range boot {
		boot[i] = Name(i)
	}
	n := NewNode("self", boot, Config{ViewSize: 20, Seed: 9})
	dst := make([]NodeID, 0, 8)
	n.AppendSample(dst, 8) // sizes the permutation scratch
	if allocs := testing.AllocsPerRun(200, func() { dst = n.AppendSample(dst[:0], 8) }); allocs != 0 {
		t.Errorf("AppendSample allocates %.1f times per call, want 0", allocs)
	}
}
