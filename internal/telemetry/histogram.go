package telemetry

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"time"
)

// DefaultLatencyBuckets spans sub-microsecond in-process stages (encrypt,
// splice) through multi-second engine calls: powers of four from 64ns to
// 4s plus the implicit +Inf overflow bucket.
var DefaultLatencyBuckets = []time.Duration{
	64 * time.Nanosecond,
	256 * time.Nanosecond,
	time.Microsecond,
	4 * time.Microsecond,
	16 * time.Microsecond,
	64 * time.Microsecond,
	256 * time.Microsecond,
	time.Millisecond,
	4 * time.Millisecond,
	16 * time.Millisecond,
	64 * time.Millisecond,
	256 * time.Millisecond,
	time.Second,
	4 * time.Second,
}

// Histogram is a fixed-boundary latency histogram. Each bucket is an
// independent atomic so Observe is a bounded scan plus three atomic adds:
// no locks, no allocation. Boundaries are inclusive upper bounds;
// exposition renders cumulative Prometheus le buckets in seconds.
type Histogram struct {
	boundsNS []int64
	buckets  []atomic.Uint64 // len(boundsNS)+1; last is +Inf overflow
	sumNS    atomic.Int64
	count    atomic.Uint64
}

func checkBounds(name string, buckets []time.Duration) []time.Duration {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("telemetry: histogram %q requires at least one bucket boundary", name))
	}
	for i, b := range buckets {
		if b <= 0 {
			panic(fmt.Sprintf("telemetry: histogram %q bucket %d is non-positive", name, i))
		}
		if i > 0 && buckets[i-1] >= b {
			panic(fmt.Sprintf("telemetry: histogram %q boundaries not strictly increasing at %d", name, i))
		}
	}
	return buckets
}

func newHistogram(bounds []time.Duration) *Histogram {
	h := &Histogram{
		boundsNS: make([]int64, len(bounds)),
		buckets:  make([]atomic.Uint64, len(bounds)+1),
	}
	for i, b := range bounds {
		h.boundsNS[i] = int64(b)
	}
	return h
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := 0
	for i < len(h.boundsNS) && ns > h.boundsNS[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNS.Add(ns)
	h.count.Add(1)
}

// Sum returns the sum of all observed durations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

func (h *Histogram) appendText(b []byte, name, label, labelValue string, hasLabel bool) []byte {
	appendLabels := func(b []byte, le string) []byte {
		b = append(b, '{')
		if hasLabel {
			b = append(b, label...)
			b = append(b, '=', '"')
			b = appendEscapedLabelValue(b, labelValue)
			b = append(b, '"', ',')
		}
		b = append(b, `le="`...)
		b = append(b, le...)
		b = append(b, '"', '}')
		return b
	}
	var cum uint64
	var le [32]byte
	for i, bound := range h.boundsNS {
		cum += h.buckets[i].Load()
		b = append(b, name...)
		b = append(b, "_bucket"...)
		b = appendLabels(b, string(strconv.AppendFloat(le[:0], float64(bound)/1e9, 'g', -1, 64)))
		b = append(b, ' ')
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	cum += h.buckets[len(h.boundsNS)].Load()
	b = append(b, name...)
	b = append(b, "_bucket"...)
	b = appendLabels(b, "+Inf")
	b = append(b, ' ')
	b = strconv.AppendUint(b, cum, 10)
	b = append(b, '\n')

	b = append(b, name...)
	b = append(b, "_sum"...)
	if hasLabel {
		b = append(b, '{')
		b = append(b, label...)
		b = append(b, '=', '"')
		b = appendEscapedLabelValue(b, labelValue)
		b = append(b, '"', '}')
	}
	b = append(b, ' ')
	b = appendFloat(b, float64(h.sumNS.Load())/1e9)
	b = append(b, '\n')

	b = append(b, name...)
	b = append(b, "_count"...)
	if hasLabel {
		b = append(b, '{')
		b = append(b, label...)
		b = append(b, '=', '"')
		b = appendEscapedLabelValue(b, labelValue)
		b = append(b, '"', '}')
	}
	b = append(b, ' ')
	b = strconv.AppendUint(b, h.count.Load(), 10)
	b = append(b, '\n')
	return b
}
