package transport

import (
	"fmt"
	"testing"
	"time"
)

func mustWAN(t *testing.T, cfg WANConfig) *WANMatrix {
	t.Helper()
	m, err := NewWANMatrix(cfg)
	if err != nil {
		t.Fatalf("NewWANMatrix: %v", err)
	}
	return m
}

func TestWANMatrixDeterminism(t *testing.T) {
	a := mustWAN(t, DefaultWANConfig(42))
	b := mustWAN(t, DefaultWANConfig(42))
	for i := 0; i < 200; i++ {
		from, to := fmt.Sprintf("n%03d", i%17), fmt.Sprintf("n%03d", (i*7)%23)
		if a.Region(from) != b.Region(from) {
			t.Fatalf("region divergence for %s", from)
		}
		if a.OneWay(from, to, uint64(i)) != b.OneWay(from, to, uint64(i)) {
			t.Fatalf("one-way divergence for %s->%s #%d", from, to, i)
		}
		if a.Lose(from, to, uint64(i)) != b.Lose(from, to, uint64(i)) {
			t.Fatalf("loss divergence for %s->%s #%d", from, to, i)
		}
	}
}

func TestWANMatrixSeedChangesStreams(t *testing.T) {
	a := mustWAN(t, DefaultWANConfig(1))
	b := mustWAN(t, DefaultWANConfig(2))
	same := 0
	const n = 500
	for i := 0; i < n; i++ {
		if a.OneWay("x", "y", uint64(i)) == b.OneWay("x", "y", uint64(i)) {
			same++
		}
	}
	if same == n {
		t.Fatalf("different seeds produced identical latency streams")
	}
}

func TestWANMatrixLatencyBounds(t *testing.T) {
	m := mustWAN(t, DefaultWANConfig(7))
	for i := 0; i < 2000; i++ {
		from, to := fmt.Sprintf("a%d", i%29), fmt.Sprintf("b%d", i%31)
		base := m.oneWay[m.Region(from)][m.Region(to)]
		d := m.OneWay(from, to, uint64(i))
		if d < base {
			t.Fatalf("sample %v below base %v for %s->%s", d, base, from, to)
		}
		if d > base+2*time.Second {
			t.Fatalf("sample %v above base+cap for %s->%s", d, from, to)
		}
	}
}

func TestWANMatrixRegionCoverage(t *testing.T) {
	m := mustWAN(t, DefaultWANConfig(42))
	counts := make([]int, len(m.Regions()))
	const n = 5000
	for i := 0; i < n; i++ {
		r := m.Region(fmt.Sprintf("node%05d", i))
		counts[r]++
	}
	for r, c := range counts {
		// A seeded uniform assignment over 5 regions should put roughly
		// n/5 nodes in each; 10% is a loose floor for n=5000.
		if c < n/10 {
			t.Fatalf("region %d (%s) got only %d/%d nodes", r, m.Regions()[r], c, n)
		}
	}
}

func TestWANMatrixLossRateEmpirical(t *testing.T) {
	m := mustWAN(t, DefaultWANConfig(3))
	// Pick a cross-region pair and check the empirical rate tracks config.
	var from, to string
	for i := 0; ; i++ {
		from = fmt.Sprintf("f%d", i)
		if m.RegionName(from) == "us-east" {
			break
		}
	}
	for i := 0; ; i++ {
		to = fmt.Sprintf("t%d", i)
		if m.RegionName(to) == "ap-south" {
			break
		}
	}
	want := m.lossP[m.Region(from)][m.Region(to)]
	const n = 200000
	lost := 0
	for i := 0; i < n; i++ {
		if m.Lose(from, to, uint64(i)) {
			lost++
		}
	}
	got := float64(lost) / n
	if got < want/2 || got > want*2 {
		t.Fatalf("empirical loss %.5f not within 2x of configured %.5f", got, want)
	}
}

func TestWANMatrixValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  WANConfig
	}{
		{"ragged", WANConfig{Regions: []string{"a", "b"}, OneWayMs: [][]float64{{1, 2}}, Loss: [][]float64{{0, 0}, {0, 0}}}},
		{"ragged row", WANConfig{Regions: []string{"a", "b"}, OneWayMs: [][]float64{{1, 2}, {3}}, Loss: [][]float64{{0, 0}, {0, 0}}}},
		{"loss above one", WANConfig{Regions: []string{"a"}, OneWayMs: [][]float64{{1}}, Loss: [][]float64{{1.5}}}},
		{"negative latency", WANConfig{Regions: []string{"a"}, OneWayMs: [][]float64{{-1}}, Loss: [][]float64{{0}}}},
		{"bad shape", func() WANConfig { c := DefaultWANConfig(1); c.JitterShape = 0.5; return c }()},
		{"negative scale", func() WANConfig { c := DefaultWANConfig(1); c.JitterScale = -1; return c }()},
	}
	for _, tc := range cases {
		if _, err := NewWANMatrix(tc.cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

func TestWANMatrixZeroConfigDefaults(t *testing.T) {
	m := mustWAN(t, WANConfig{Seed: 9})
	if got := len(m.Regions()); got != 5 {
		t.Fatalf("zero config regions = %d, want 5", got)
	}
}
