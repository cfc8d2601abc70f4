package simnet

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/transport"
)

var t0 = time.Date(2006, 3, 1, 0, 0, 0, 0, time.UTC)

// newSimNet builds a minimal simnet-wrapped deployment: NullBackend, zero
// modelled latency, no analyzer (k = 0).
func newSimNet(t *testing.T, nodes int, sim *Sim) *core.Network {
	t.Helper()
	net, err := core.NewNetwork(core.NetworkOptions{
		Nodes:        nodes,
		Seed:         61,
		Backend:      core.NullBackend{},
		LatencyModel: transport.NewModel(61, nil, 0),
		Conduit:      sim.Wrap,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestCrashRestart(t *testing.T) {
	sim := New(Config{Seed: 1})
	net := newSimNet(t, 4, sim)
	ids := net.NodeIDs()
	client, relay := net.Node(ids[0]), ids[1]

	if err := net.RelayRoundTrip(client, relay, "probe", t0); err != nil {
		t.Fatalf("healthy forward failed: %v", err)
	}
	sim.Crash(relay)
	if !sim.Crashed(relay) {
		t.Fatal("Crashed(relay) = false after Crash")
	}
	if err := net.RelayRoundTrip(client, relay, "probe", t0); !errors.Is(err, core.ErrRelayUnavailable) {
		t.Fatalf("forward to crashed relay: err = %v, want ErrRelayUnavailable", err)
	}
	// Deliveries *from* a crashed node still flow (receive-side crash).
	if err := net.RelayRoundTrip(net.Node(relay), ids[2], "probe", t0); err != nil {
		t.Fatalf("forward from crashed node failed: %v", err)
	}
	sim.Restart(relay)
	if err := net.RelayRoundTrip(client, relay, "probe", t0); err != nil {
		t.Fatalf("forward after restart failed: %v", err)
	}
	if st := sim.Stats(); st.CrashBlocked != 1 {
		t.Errorf("CrashBlocked = %d, want 1", st.CrashBlocked)
	}
}

func TestPartitionIsAsymmetric(t *testing.T) {
	sim := New(Config{Seed: 2})
	net := newSimNet(t, 4, sim)
	ids := net.NodeIDs()
	a, b := ids[0], ids[1]

	sim.Partition(a, b)
	if err := net.RelayRoundTrip(net.Node(a), b, "probe", t0); !errors.Is(err, core.ErrRelayUnavailable) {
		t.Fatalf("partitioned direction: err = %v, want ErrRelayUnavailable", err)
	}
	if err := net.RelayRoundTrip(net.Node(b), a, "probe", t0); err != nil {
		t.Fatalf("reverse direction must still flow: %v", err)
	}
	sim.Heal(a, b)
	if err := net.RelayRoundTrip(net.Node(a), b, "probe", t0); err != nil {
		t.Fatalf("healed direction failed: %v", err)
	}
	if st := sim.Stats(); st.PartitionBlocked != 1 {
		t.Errorf("PartitionBlocked = %d, want 1", st.PartitionBlocked)
	}
}

// TestContentFaultsAreRejected proves each content fault kind is detected
// and classified as relay misbehavior, never accepted and never a panic.
func TestContentFaultsAreRejected(t *testing.T) {
	cases := []struct {
		name   string
		faults FaultConfig
		count  func(Stats) uint64
	}{
		{"bitflip", FaultConfig{BitFlip: 1}, func(s Stats) uint64 { return s.BitFlipped }},
		{"truncate", FaultConfig{Truncate: 1}, func(s Stats) uint64 { return s.Truncated }},
		{"garbage", FaultConfig{Garbage: 1}, func(s Stats) uint64 { return s.Garbage + s.Oversized }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := New(Config{Seed: 3, Faults: tc.faults})
			net := newSimNet(t, 4, sim)
			ids := net.NodeIDs()
			client, relay := net.Node(ids[0]), ids[1]
			err := net.RelayRoundTrip(client, relay, "tamper probe", t0)
			if !errors.Is(err, core.ErrRelayMisbehaved) {
				t.Fatalf("err = %v, want ErrRelayMisbehaved", err)
			}
			if got := tc.count(sim.Stats()); got != 1 {
				t.Errorf("fault count = %d, want 1", got)
			}
			// The relay saw the delivery: tampering happens in flight.
			if relayed := net.Node(relay).Stats().Relayed; relayed != 1 {
				t.Errorf("relayed = %d, want 1", relayed)
			}
		})
	}
}

// TestReplayIsRejected: with Replay = 1 the first delivery of a pair passes
// clean (nothing captured yet) and every later one replays the capture,
// which the channel's record counters must reject.
func TestReplayIsRejected(t *testing.T) {
	sim := New(Config{Seed: 4, Faults: FaultConfig{Replay: 1}})
	net := newSimNet(t, 4, sim)
	ids := net.NodeIDs()
	client, relay := net.Node(ids[0]), ids[1]

	if err := net.RelayRoundTrip(client, relay, "original", t0); err != nil {
		t.Fatalf("first delivery should pass clean: %v", err)
	}
	err := net.RelayRoundTrip(client, relay, "fresh", t0)
	if !errors.Is(err, core.ErrRelayMisbehaved) {
		t.Fatalf("replayed delivery: err = %v, want ErrRelayMisbehaved", err)
	}
	if st := sim.Stats(); st.Replayed != 1 {
		t.Errorf("Replayed = %d, want 1", st.Replayed)
	}
}

// TestSpikeChargesLatency: a latency spike injures nothing but the clock.
func TestSpikeChargesLatency(t *testing.T) {
	spike := 5 * time.Second
	sim := New(Config{Seed: 5, Faults: FaultConfig{Spike: 1, SpikeLatency: spike}})
	net := newSimNet(t, 4, sim)
	ids := net.NodeIDs()

	res, err := net.Node(ids[0]).Search("spiked query", t0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency < spike {
		t.Errorf("latency = %v, want >= injected spike %v", res.Latency, spike)
	}
	if st := sim.Stats(); st.Spiked == 0 {
		t.Error("no spike recorded")
	}
}

// tamperNth is a test conduit that flips one bit of the n-th delivery.
type tamperNth struct {
	inner transport.Conduit
	n     int
	seen  int
}

func (c *tamperNth) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	c.seen++
	if c.seen == c.n && len(payload) > 0 {
		payload[len(payload)/2] ^= 0x10
	}
	return c.inner.Deliver(from, to, payload, now)
}

// TestPairRecoversAfterTamper is the self-healing property the fault layer
// relies on: one tampered exchange must not poison the pair — the broken
// session is discarded and the next forward re-attests and succeeds.
func TestPairRecoversAfterTamper(t *testing.T) {
	tamper := &tamperNth{n: 2}
	net, err := core.NewNetwork(core.NetworkOptions{
		Nodes:        3,
		Seed:         62,
		Backend:      core.NullBackend{},
		LatencyModel: transport.NewModel(62, nil, 0),
		Conduit: func(direct transport.Conduit) transport.Conduit {
			tamper.inner = direct
			return tamper
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids := net.NodeIDs()
	client, relay := net.Node(ids[0]), ids[1]

	if err := net.RelayRoundTrip(client, relay, "one", t0); err != nil {
		t.Fatalf("clean forward failed: %v", err)
	}
	if err := net.RelayRoundTrip(client, relay, "two", t0); !errors.Is(err, core.ErrRelayMisbehaved) {
		t.Fatalf("tampered forward: err = %v, want ErrRelayMisbehaved", err)
	}
	// Without breakPair this would fail forever on sequence mismatches.
	for i := 0; i < 3; i++ {
		if err := net.RelayRoundTrip(client, relay, "three", t0); err != nil {
			t.Fatalf("forward %d after recovery failed: %v", i, err)
		}
	}
}

// TestFaultConfigClamped: out-of-range probabilities (a wild intensity
// multiplier, a typo) must clamp to [0, 1], never flow through float-to-
// uint64 conversion as implementation-defined thresholds.
func TestFaultConfigClamped(t *testing.T) {
	sim := New(Config{Seed: 8, Faults: FaultConfig{Drop: -3, BitFlip: 7}})
	for i := uint64(0); i < 64; i++ {
		if k := sim.pick(mix(8, 42, i)); k != FaultBitFlip {
			t.Fatalf("draw %d: kind = %v, want every delivery bit-flipped (Drop<0 clamps to 0, BitFlip>1 to 1)", i, k)
		}
	}
	none := New(Config{Seed: 8, Faults: FaultConfig{Drop: -1}})
	if none.faults.active() {
		t.Fatal("all-negative config must deactivate injection")
	}
}

func TestScheduleRespectsBounds(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	cfg := ScheduleConfig{Steps: 64, MaxDown: 2, MaxPartitions: 3}
	steps := GenSchedule(9, ids, cfg)
	if len(steps) != 64 {
		t.Fatalf("steps = %d, want 64", len(steps))
	}
	down := map[string]bool{}
	parts := map[[2]string]bool{}
	for i, s := range steps {
		switch s.Kind {
		case StepCrash:
			if down[s.A] {
				t.Fatalf("step %d: %s crashed twice", i, s.A)
			}
			down[s.A] = true
			if len(down) > cfg.MaxDown {
				t.Fatalf("step %d: %d nodes down, max %d", i, len(down), cfg.MaxDown)
			}
		case StepRestart:
			if !down[s.A] {
				t.Fatalf("step %d: restart of alive %s", i, s.A)
			}
			delete(down, s.A)
		case StepPartition:
			if s.A == s.B {
				t.Fatalf("step %d: self-partition", i)
			}
			parts[[2]string{s.A, s.B}] = true
			if len(parts) > cfg.MaxPartitions {
				t.Fatalf("step %d: %d partitions, max %d", i, len(parts), cfg.MaxPartitions)
			}
		case StepHeal:
			if !parts[[2]string{s.A, s.B}] {
				t.Fatalf("step %d: heal of unbroken pair", i)
			}
			delete(parts, [2]string{s.A, s.B})
		}
		if s.String() == "" {
			t.Fatal("unrenderable step")
		}
	}
}

// TestInvariantCheckersDetect proves each checker actually fires on a
// violation — a checker that cannot fail verifies nothing.
func TestInvariantCheckersDetect(t *testing.T) {
	inv := NewInvariants(Sentinel)

	inv.checkWire("n1", "n2", []byte("prefix "+Sentinel+" suffix"))
	inv.checkWire("n1", "n1", []byte("x"))
	inv.observeNonce(nil, [16]byte{}, true, 0) // ok: first counter
	inv.observeNonce(nil, [16]byte{}, true, 2) // gap
	inv.observeNonce(nil, [16]byte{}, true, 1) // rewind: the reuse case

	v, overflow := inv.Violations()
	if overflow != 0 {
		t.Fatalf("overflow = %d", overflow)
	}
	var leak, self, nonce int
	for _, s := range v {
		switch {
		case strings.Contains(s, "plaintext query on the wire"):
			leak++
		case strings.Contains(s, "self-delivery"):
			self++
		case strings.Contains(s, "nonce counter"):
			nonce++
		}
	}
	if leak != 1 || self != 1 || nonce != 2 {
		t.Fatalf("violations = %v (leak=%d self=%d nonce=%d)", v, leak, self, nonce)
	}
	if w, _, n := inv.Scans(); w != 2 || n != 3 {
		t.Fatalf("scans wire=%d nonce=%d", w, n)
	}

	// A clean record at the resumed counter passes.
	before := len(v)
	inv.observeNonce(nil, [16]byte{}, true, 3)
	v, _ = inv.Violations()
	if len(v) != before {
		t.Fatalf("clean nonce recorded a violation: %v", v[before:])
	}
}
