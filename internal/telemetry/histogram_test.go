package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// bucketCounts returns h's non-cumulative per-bucket counts, the last one
// counting observations above the last boundary.
func bucketCounts(h *Histogram) []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// TestHistogramBucketBoundaries pins the inclusive-upper-bound semantics:
// an observation exactly on a boundary lands in that boundary's bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	bounds := []time.Duration{time.Microsecond, time.Millisecond, time.Second}
	cases := []struct {
		d    time.Duration
		want int // bucket index
	}{
		{0, 0},
		{-5 * time.Second, 0}, // clamps to zero
		{time.Microsecond, 0},
		{time.Microsecond + 1, 1},
		{time.Millisecond, 1},
		{time.Millisecond + 1, 2},
		{time.Second, 2},
		{time.Second + 1, 3}, // +Inf overflow
		{time.Hour, 3},
	}
	for _, tc := range cases {
		r := NewRegistry()
		h := r.Histogram("bb_seconds", "", bounds)
		h.Observe(tc.d)
		counts := bucketCounts(h)
		for i, c := range counts {
			want := uint64(0)
			if i == tc.want {
				want = 1
			}
			if c != want {
				t.Errorf("Observe(%v): bucket[%d] = %d, want %d", tc.d, i, c, want)
			}
		}
	}
}

func TestHistogramSumCountAndCumulativeExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("cum_seconds", "cumulative", []time.Duration{time.Millisecond, time.Second})
	h.Observe(time.Millisecond)       // bucket 0
	h.Observe(500 * time.Millisecond) // bucket 1
	h.Observe(2 * time.Second)        // +Inf
	if h.count.Load() != 3 {
		t.Fatalf("count = %d, want 3", h.count.Load())
	}
	if want := time.Millisecond + 500*time.Millisecond + 2*time.Second; h.Sum() != want {
		t.Fatalf("sum = %v, want %v", h.Sum(), want)
	}
	text := string(r.AppendText(nil))
	for _, want := range []string{
		`cum_seconds_bucket{le="0.001"} 1`,
		`cum_seconds_bucket{le="1"} 2`,
		`cum_seconds_bucket{le="+Inf"} 3`,
		"cum_seconds_sum 2.501",
		"cum_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
	parsePromText(t, text)
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines; run under -race this doubles as the data-race check, and the
// totals must still balance.
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("conc_seconds", "", DefaultLatencyBuckets)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			d := time.Duration(seed+1) * 37 * time.Nanosecond
			for i := 0; i < perWorker; i++ {
				h.Observe(d)
				d += 977 * time.Nanosecond
			}
		}(w)
	}
	wg.Wait()
	if got := h.count.Load(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	var sum uint64
	for _, c := range bucketCounts(h) {
		sum += c
	}
	if sum != workers*perWorker {
		t.Fatalf("bucket sum = %d, want %d", sum, workers*perWorker)
	}
	parsePromText(t, string(r.AppendText(nil)))
}

func TestConcurrentCountersAndExposition(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("conc_total", "", "lane")
	lanes := []*Counter{v.With("a"), v.With("b"), v.With("c")}
	var writers, scraper sync.WaitGroup
	stop := make(chan struct{})
	scraper.Add(1)
	go func() { // concurrent scraper
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.AppendText(nil)
			}
		}
	}()
	for _, c := range lanes {
		writers.Add(1)
		go func(c *Counter) {
			defer writers.Done()
			for i := 0; i < 5000; i++ {
				c.Inc()
			}
		}(c)
	}
	writers.Wait()
	close(stop)
	scraper.Wait()
	for i, c := range lanes {
		if c.Value() != 5000 {
			t.Fatalf("lane %d = %d, want 5000", i, c.Value())
		}
	}
}
