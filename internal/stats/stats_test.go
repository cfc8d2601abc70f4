package stats

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 {
		t.Errorf("N = %d, want 5", s.N)
	}
	if s.Min != 1 || s.Max != 5 {
		t.Errorf("Min/Max = %v/%v, want 1/5", s.Min, s.Max)
	}
	if !almostEqual(s.Mean, 3) {
		t.Errorf("Mean = %v, want 3", s.Mean)
	}
	if !almostEqual(s.Median, 3) {
		t.Errorf("Median = %v, want 3", s.Median)
	}
	if !almostEqual(s.StdDev, math.Sqrt(2)) {
		t.Errorf("StdDev = %v, want sqrt(2)", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Median != 0 {
		t.Errorf("empty summary not zero: %+v", s)
	}
}

// TestPercentile pins the nearest-rank definition: the value at rank
// ceil(p/100 * n), never an interpolation between two samples.
func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 10}, {100, 40}, {50, 20}, {51, 30}, {25, 10}, {26, 20}, {75, 30}, {-5, 10}, {150, 40},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if xs[0] != 40 {
		t.Error("Percentile sorted its argument in place")
	}
	if Percentile([]float64(nil), 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
	if Percentile([]float64{7}, 50) != 7 {
		t.Error("single-element percentile wrong")
	}
	// Any ordered type, with the same ranks: the simnet reports take
	// durations.
	durs := []time.Duration{4 * time.Second, time.Second, 3 * time.Second, 2 * time.Second}
	if got := Percentile(durs, 95); got != 4*time.Second {
		t.Errorf("Percentile(durations, 95) = %v, want 4s", got)
	}
	// The CDF reads the same rank.
	c := NewCDF(xs)
	for _, tt := range tests {
		if got := c.Quantile(tt.p / 100); got != tt.want {
			t.Errorf("CDF.Quantile(%v) = %v, want %v (Percentile's rank)", tt.p/100, got, tt.want)
		}
	}
}

func TestMeanMedian(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almostEqual(Mean([]float64{1, 2, 6}), 3) {
		t.Error("Mean wrong")
	}
	if !almostEqual(Median([]float64{5, 1, 3}), 3) {
		t.Error("Median wrong")
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("Median of an even sample = %v, want the lower middle 2 (nearest rank)", got)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	tests := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {100, 1},
	}
	for _, tt := range tests {
		if got := c.At(tt.x); !almostEqual(got, tt.want) {
			t.Errorf("At(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if got := c.Quantile(0.5); got != 2 {
		t.Errorf("Quantile(0.5) = %v, want 2", got)
	}
	if got := c.Quantile(1.0); got != 4 {
		t.Errorf("Quantile(1.0) = %v, want 4", got)
	}
	if got := c.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := c.Quantile(0.25); got != 1 {
		t.Errorf("Quantile(0.25) = %v, want 1", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.At(1) != 0 || c.Quantile(0.5) != 0 || c.N() != 0 {
		t.Error("empty CDF should return zeros")
	}
	if pts := c.Points(10); pts != nil {
		t.Errorf("Points on empty CDF = %v", pts)
	}
}

func TestCDFPoints(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i)
	}
	c := NewCDF(xs)
	pts := c.Points(10)
	if len(pts) != 10 {
		t.Fatalf("len(Points) = %d, want 10", len(pts))
	}
	if !almostEqual(pts[len(pts)-1].Y, 1.0) {
		t.Errorf("last point Y = %v, want 1.0", pts[len(pts)-1].Y)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X || pts[i].Y <= pts[i-1].Y {
			t.Errorf("points not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
}

// CDF invariants: At is monotone, Quantile(At(x)) <= x for sample points.
func TestCDFProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(n uint8) bool {
		size := int(n%50) + 1
		xs := make([]float64, size)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		c := NewCDF(xs)
		sorted := make([]float64, size)
		copy(sorted, xs)
		sort.Float64s(sorted)
		prev := -1.0
		for _, x := range sorted {
			p := c.At(x)
			if p < prev-1e-12 {
				return false
			}
			prev = p
			if c.Quantile(p) > x+1e-9 {
				return false
			}
		}
		return almostEqual(c.At(sorted[size-1]), 1.0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableString(t *testing.T) {
	tbl := &Table{
		Title:  "Test table",
		Header: []string{"System", "Rate"},
	}
	tbl.AddRow("TOR", "36.0%")
	tbl.AddRow("CYCLOSA", "4.0%")
	out := tbl.String()
	for _, want := range []string{"Test table", "System", "CYCLOSA", "36.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title + header + separator + 2 rows
		t.Errorf("line count = %d, want 5:\n%s", len(lines), out)
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(876 * time.Millisecond); got != "0.876s" {
		t.Errorf("FormatDuration = %q", got)
	}
}

func TestDurationsToSeconds(t *testing.T) {
	out := DurationsToSeconds([]time.Duration{time.Second, 500 * time.Millisecond})
	if len(out) != 2 || !almostEqual(out[0], 1.0) || !almostEqual(out[1], 0.5) {
		t.Errorf("DurationsToSeconds = %v", out)
	}
}
