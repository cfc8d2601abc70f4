package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. Inc and Add are
// safe for concurrent use and never allocate.
type Counter struct{ v atomic.Uint64 }

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value that may go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (which may be negative) to the gauge.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one to the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one from the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one sample stream within a family: either the sole unlabeled
// stream or one pre-registered label value.
type series struct {
	labelValue string
	hasLabel   bool
	counter    *Counter
	gauge      *Gauge
	fn         func() float64
	hist       *Histogram
}

type family struct {
	name   string
	help   string
	k      kind
	label  string // label name; "" for unlabeled families
	bounds []time.Duration

	mu      sync.Mutex
	series  []*series
	byValue map[string]*series
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. Registration (typically at package init) panics on
// duplicate or malformed names; reads on the hot path are plain atomics.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry used by hot-path instruments
// registered from package-level vars in instrumented packages.
func Default() *Registry { return defaultRegistry }

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(name, help string, k kind, label string, bounds []time.Duration) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	if label != "" && !validLabelName(label) {
		panic(fmt.Sprintf("telemetry: invalid label name %q for metric %q", label, name))
	}
	if label == "le" {
		panic(fmt.Sprintf("telemetry: label name \"le\" is reserved (metric %q)", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric registration %q", name))
	}
	f := &family{name: name, help: help, k: k, label: label, bounds: bounds, byValue: make(map[string]*series)}
	r.byName[name] = f
	return f
}

func (f *family) child(labelValue string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.byValue[labelValue]; ok {
		return s
	}
	s := &series{labelValue: labelValue, hasLabel: f.label != ""}
	switch f.k {
	case kindCounter:
		s.counter = &Counter{}
	case kindGauge:
		s.gauge = &Gauge{}
	case kindHistogram:
		s.hist = newHistogram(f.bounds)
	}
	f.byValue[labelValue] = s
	f.series = append(f.series, s)
	return s
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, kindCounter, "", nil).child("").counter
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, kindGauge, "", nil).child("").gauge
}

// CounterFunc registers a counter whose value is sampled from fn at
// exposition time. fn must be safe for concurrent use and monotonic.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindCounter, "", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := &series{fn: fn}
	f.byValue[""] = s
	f.series = append(f.series, s)
}

// GaugeFunc registers a gauge whose value is sampled from fn at
// exposition time. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, kindGauge, "", nil)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := &series{fn: fn}
	f.byValue[""] = s
	f.series = append(f.series, s)
}

// Histogram registers and returns an unlabeled fixed-boundary latency
// histogram. Boundaries are inclusive upper bounds in increasing order; an
// implicit +Inf bucket is always added.
func (r *Registry) Histogram(name, help string, buckets []time.Duration) *Histogram {
	return r.register(name, help, kindHistogram, "", checkBounds(name, buckets)).child("").hist
}

// CounterVec is a counter family with one label dimension. Label values
// are pre-registered via With, typically into package-level handles, so
// the hot path never formats label strings.
type CounterVec struct{ fam *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	if label == "" {
		panic(fmt.Sprintf("telemetry: CounterVec %q requires a label name", name))
	}
	return &CounterVec{fam: r.register(name, help, kindCounter, label, nil)}
}

// With returns the counter for the given label value, registering it on
// first use. Cache the handle; do not call With on the hot path.
func (v *CounterVec) With(labelValue string) *Counter { return v.fam.child(labelValue).counter }

// HistogramVec is a histogram family with one label dimension sharing one
// set of bucket boundaries.
type HistogramVec struct{ fam *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help, label string, buckets []time.Duration) *HistogramVec {
	if label == "" {
		panic(fmt.Sprintf("telemetry: HistogramVec %q requires a label name", name))
	}
	return &HistogramVec{fam: r.register(name, help, kindHistogram, label, checkBounds(name, buckets))}
}

// With returns the histogram for the given label value, registering it on
// first use. Cache the handle; do not call With on the hot path.
func (v *HistogramVec) With(labelValue string) *Histogram { return v.fam.child(labelValue).hist }

// AppendText appends the text exposition of the registry to b and returns
// the extended slice.
func (r *Registry) AppendText(b []byte) []byte {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.byName))
	for _, f := range r.byName {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		b = f.appendText(b)
	}
	return b
}

func (f *family) appendText(b []byte) []byte {
	b = append(b, "# HELP "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = appendEscapedHelp(b, f.help)
	b = append(b, '\n')
	b = append(b, "# TYPE "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = append(b, f.k.String()...)
	b = append(b, '\n')

	f.mu.Lock()
	children := make([]*series, len(f.series))
	copy(children, f.series)
	f.mu.Unlock()
	for _, s := range children {
		switch f.k {
		case kindCounter, kindGauge:
			b = append(b, f.name...)
			if s.hasLabel {
				b = append(b, '{')
				b = append(b, f.label...)
				b = append(b, '=', '"')
				b = appendEscapedLabelValue(b, s.labelValue)
				b = append(b, '"', '}')
			}
			b = append(b, ' ')
			switch {
			case s.fn != nil:
				b = appendFloat(b, s.fn())
			case s.counter != nil:
				b = strconv.AppendUint(b, s.counter.Value(), 10)
			default:
				b = strconv.AppendInt(b, s.gauge.Value(), 10)
			}
			b = append(b, '\n')
		case kindHistogram:
			b = s.hist.appendText(b, f.name, f.label, s.labelValue, s.hasLabel)
		}
	}
	return b
}

func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendEscapedHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}

func appendEscapedLabelValue(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}
