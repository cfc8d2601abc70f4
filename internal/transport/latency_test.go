package transport

import (
	"math/rand"
	"testing"
	"time"

	"cyclosa/internal/stats"
)

func TestLogNormalSampleMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ln := LogNormal{Median: 100 * time.Millisecond, Sigma: 0.5}
	samples := make([]float64, 4000)
	for i := range samples {
		samples[i] = ln.Sample(rng).Seconds()
	}
	med := stats.Median(samples)
	if med < 0.085 || med > 0.115 {
		t.Errorf("sample median = %.3fs, want ≈ 0.100s", med)
	}
	for _, s := range samples {
		if s <= 0 {
			t.Fatal("non-positive latency sample")
		}
	}
}

func TestLogNormalZeroMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if d := (LogNormal{}).Sample(rng); d != 0 {
		t.Errorf("zero-median sample = %v", d)
	}
}

func TestDefaultModelOrdering(t *testing.T) {
	m := DefaultModel(2)
	n := 500
	mean := func(c LinkClass) float64 {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += m.Sample(c).Seconds()
		}
		return sum / float64(n)
	}
	lan, wan, tor, engine := mean(LinkLAN), mean(LinkWAN), mean(LinkTorHop), mean(LinkEngineRTT)
	if !(lan < wan && wan < engine && engine < tor) {
		t.Errorf("latency ordering violated: lan=%v wan=%v engine=%v tor=%v", lan, wan, engine, tor)
	}
	if m.Sample(LinkClass(99)) != 0 {
		t.Error("unknown link class should sample 0")
	}
	if m.processing != 2*time.Millisecond {
		t.Errorf("processing cost = %v", m.processing)
	}
}

func TestRTT(t *testing.T) {
	m := DefaultModel(3)
	rtt := m.RTT(LinkWAN)
	if rtt <= 0 {
		t.Error("non-positive RTT")
	}
}

func TestModelDeterministicPerSeed(t *testing.T) {
	a := DefaultModel(7)
	b := DefaultModel(7)
	for i := 0; i < 10; i++ {
		if a.Sample(LinkWAN) != b.Sample(LinkWAN) {
			t.Fatal("same seed produced different samples")
		}
	}
}

// RelayedSearch draws exactly what its three Sample calls drew: same values,
// same order, the generator left in the same state.
func TestRelayedSearchDrawsAsSample(t *testing.T) {
	models := map[string]func() *Model{
		"default":  func() *Model { return DefaultModel(5) },
		"testbed":  func() *Model { return TestbedModel(5) },
		"no links": func() *Model { return NewModel(5, nil, 0) },
		"zero wan": func() *Model {
			return NewModel(5, map[LinkClass]LogNormal{LinkEngineRTT: {Median: time.Second, Sigma: 0.3}, LinkWAN: {}}, time.Millisecond)
		},
	}
	for name, build := range models {
		one, three := build(), build()
		for i := 0; i < 1000; i++ {
			want := three.Sample(LinkWAN) + three.processing + three.Sample(LinkEngineRTT) + three.processing + three.Sample(LinkWAN)
			if got := one.RelayedSearch(); got != want {
				t.Fatalf("%s: draw %d: RelayedSearch = %v, three samples = %v", name, i, got, want)
			}
			if a, b := one.Sample(LinkLAN), three.Sample(LinkLAN); a != b {
				t.Fatalf("%s: draw %d: generators out of step: %v vs %v", name, i, a, b)
			}
		}
	}
}
