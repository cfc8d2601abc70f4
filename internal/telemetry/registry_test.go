package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeValues(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "ops")
	g := r.Gauge("test_depth", "depth")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Add(3)
	g.Dec()
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %d, want 9", got)
	}
	text := string(r.AppendText(nil))
	for _, want := range []string{
		"# HELP test_ops_total ops\n",
		"# TYPE test_ops_total counter\n",
		"test_ops_total 5\n",
		"# TYPE test_depth gauge\n",
		"test_depth 9\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestVecHandlesAndFuncMetrics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_outcomes_total", "outcomes", "outcome")
	ok := v.With("ok")
	bad := v.With("error")
	if again := v.With("ok"); again != ok {
		t.Fatal("With must return the cached series handle")
	}
	ok.Add(2)
	bad.Inc()
	r.CounterFunc("test_sampled_total", "sampled", func() float64 { return 42 })
	r.GaugeFunc("test_temperature", "temp", func() float64 { return 1.5 })
	text := string(r.AppendText(nil))
	for _, want := range []string{
		`test_outcomes_total{outcome="ok"} 2`,
		`test_outcomes_total{outcome="error"} 1`,
		"test_sampled_total 42",
		"test_temperature 1.5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_esc_total", `has "quotes", \slashes and`+"\nnewlines", "who")
	v.With("a\"b\\c\nd").Inc()
	text := string(r.AppendText(nil))
	if !strings.Contains(text, `test_esc_total{who="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", text)
	}
	if !strings.Contains(text, `# HELP test_esc_total has "quotes", \\slashes and\nnewlines`) {
		t.Fatalf("help not escaped:\n%s", text)
	}
	parsePromText(t, text)
}

func TestRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(r *Registry)
	}{
		{"duplicate", func(r *Registry) { r.Counter("dup_total", ""); r.Counter("dup_total", "") }},
		{"bad metric name", func(r *Registry) { r.Counter("9bad", "") }},
		{"empty metric name", func(r *Registry) { r.Counter("", "") }},
		{"bad label name", func(r *Registry) { r.CounterVec("ok_total", "", "bad-label") }},
		{"reserved le label", func(r *Registry) { r.HistogramVec("h_seconds", "", "le", DefaultLatencyBuckets) }},
		{"empty vec label", func(r *Registry) { r.CounterVec("ok_total", "", "") }},
		{"empty buckets", func(r *Registry) { r.Histogram("h_seconds", "", nil) }},
		{"unsorted buckets", func(r *Registry) {
			r.Histogram("h_seconds", "", []time.Duration{time.Second, time.Millisecond})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", tc.name)
				}
			}()
			tc.fn(NewRegistry())
		})
	}
}

func TestDefaultRegistryIsSingleton(t *testing.T) {
	if Default() != Default() {
		t.Fatal("Default registry must be a singleton")
	}
}

// TestExpositionRoundTrip feeds a registry exercising every metric kind
// through the strict text-format parser.
func TestExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_plain_total", "plain counter").Add(3)
	r.Gauge("rt_depth", "a gauge").Set(-4)
	v := r.CounterVec("rt_labeled_total", "labeled", "kind")
	v.With("x").Inc()
	v.With("y").Add(9)
	r.CounterFunc("rt_fn_total", "func counter", func() float64 { return 12.5 })
	r.GaugeFunc("rt_fn_depth", "func gauge", func() float64 { return -0.25 })
	h := r.Histogram("rt_lat_seconds", "latency", DefaultLatencyBuckets)
	for _, d := range []time.Duration{10 * time.Nanosecond, 3 * time.Microsecond, 80 * time.Millisecond, 9 * time.Second} {
		h.Observe(d)
	}
	hv := r.HistogramVec("rt_stage_seconds", "stages", "stage", []time.Duration{time.Millisecond, time.Second})
	hv.With("enc").Observe(5 * time.Millisecond)
	hv.With("dec").Observe(2 * time.Second)

	fams := parsePromText(t, string(r.AppendText(nil)))
	if got := fams["rt_plain_total"].samples["rt_plain_total"]; got != 3 {
		t.Errorf("rt_plain_total = %v, want 3", got)
	}
	if got := fams["rt_labeled_total"].samples[`rt_labeled_total{kind="y"}`]; got != 9 {
		t.Errorf("labeled y = %v, want 9", got)
	}
	if got := fams["rt_lat_seconds"].samples["rt_lat_seconds_count"]; got != 4 {
		t.Errorf("histogram count = %v, want 4", got)
	}
	if got := fams["rt_stage_seconds"].samples[`rt_stage_seconds_bucket{stage="dec",le="+Inf"}`]; got != 1 {
		t.Errorf("dec +Inf bucket = %v, want 1", got)
	}
}
