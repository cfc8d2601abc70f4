package main

import "sort"

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between closest ranks; 0 for an empty sample. The benchmark
// owns this (and the two functions below) so the packages that also carry
// percentile code (internal/stats, internal/telemetry) can be merged or
// deleted without moving the ruler.
func percentile[T int64 | float64](sorted []T, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]) + frac*float64(sorted[lo+1]-sorted[lo])
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy[T int64 | float64](xs []T) []T {
	out := append([]T(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// p95Slices is the number of equal slices each client's latencies are cut
// into for sliceP95.
const p95Slices = 8

// sliceP95 is the tail metric: every client's latencies (in completion
// order) are split into p95Slices equal slices, each slice gives its own
// p95, and the result is the median of those. A GC cycle or a burst of
// first-contact attestations moves one slice, not the metric; a plain p95
// over the whole run moved 20% between identical runs.
func sliceP95(perClient [][]int64) float64 {
	var p95s []float64
	for _, lat := range perClient {
		n := len(lat) / p95Slices
		if n == 0 {
			continue
		}
		for s := 0; s < p95Slices; s++ {
			p95s = append(p95s, percentile(sortedCopy(lat[s*n:(s+1)*n]), 95))
		}
	}
	return percentile(sortedCopy(p95s), 50)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other (the k+1 paths of one search run in
// parallel) and may stick out of the parent; only their union inside the
// parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i].start < children[j].start })
	covered := int64(0)
	cursor := parent.start
	for _, c := range children {
		s, e := c.start, c.end
		if s < cursor {
			s = cursor
		}
		if e > parent.end {
			e = parent.end
		}
		if e > s {
			covered += e - s
			cursor = e
		}
	}
	return parent.end - parent.start - covered
}
