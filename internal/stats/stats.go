// Package stats provides the descriptive-statistics helpers used by the
// evaluation harness: empirical CDFs, one nearest-rank percentile,
// summaries and simple fixed-width table/series rendering so that each
// experiment can print the same rows and series as the corresponding table
// or figure in the paper. It holds no histogram: the one histogram type is
// telemetry.Histogram, which the daemon exports.
package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// Summary holds the usual descriptive statistics of a sample.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	P90    float64
	P99    float64
	StdDev float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)

	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	mean := sum / float64(len(sorted))
	variance := 0.0
	for _, x := range sorted {
		d := x - mean
		variance += d * d
	}
	variance /= float64(len(sorted))

	return Summary{
		N:      len(sorted),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		Mean:   mean,
		Median: sorted[nearestRank(len(sorted), 0.5)],
		P90:    sorted[nearestRank(len(sorted), 0.9)],
		P99:    sorted[nearestRank(len(sorted), 0.99)],
		StdDev: math.Sqrt(variance),
	}
}

// Percentile returns the p-th percentile (0..100) of xs by the nearest-rank
// method: the smallest sample value with at least p% of the sample at or
// below it. p <= 0 gives the minimum, p >= 100 the maximum and an empty
// sample the zero value; xs is not modified. It is the one percentile of
// the evaluation: CDF.Quantile, Summarize and the simnet reports all read
// ranks this way.
func Percentile[T cmp.Ordered](xs []T, p float64) T {
	if len(xs) == 0 {
		var zero T
		return zero
	}
	sorted := slices.Clone(xs)
	slices.Sort(sorted)
	return sorted[nearestRank(len(sorted), p/100)]
}

// nearestRank is the index of the q-quantile (0..1) in n ascending samples.
// A tiny epsilon keeps a q computed as i/n on rank i despite floating-point
// error.
func nearestRank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	return min(max(i, 0), n-1)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// CDF is an empirical cumulative distribution function over a sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from the sample xs.
func NewCDF(xs []float64) *CDF {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return &CDF{sorted: sorted}
}

// N returns the sample size.
func (c *CDF) N() int { return len(c.sorted) }

// At returns P(X <= x) as a fraction in [0, 1].
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	idx := sort.Search(len(c.sorted), func(i int) bool { return c.sorted[i] > x })
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the smallest sample value v with P(X <= v) >= q, for
// q in (0, 1]: the nearest-rank quantile, as Percentile. q <= 0 returns the
// minimum.
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	return c.sorted[nearestRank(len(c.sorted), q)]
}

// Points returns up to n evenly spaced (value, cumulative fraction) points,
// suitable for printing a CDF series like the paper's figures.
func (c *CDF) Points(n int) []Point {
	if len(c.sorted) == 0 || n <= 0 {
		return nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	pts := make([]Point, 0, n)
	for i := 1; i <= n; i++ {
		idx := i*len(c.sorted)/n - 1
		pts = append(pts, Point{
			X: c.sorted[idx],
			Y: float64(idx+1) / float64(len(c.sorted)),
		})
	}
	return pts
}

// Point is a single (x, y) sample of a rendered series.
type Point struct {
	X float64
	Y float64
}

// Table renders rows with a header as a fixed-width text table, matching the
// row/column structure of the paper's tables.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells to the table.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// FormatDuration renders a duration in seconds with millisecond precision,
// matching the units used in the paper's latency figures.
func FormatDuration(d time.Duration) string {
	return fmt.Sprintf("%.3fs", d.Seconds())
}

// DurationsToSeconds converts a slice of durations to float64 seconds.
func DurationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
