package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0, 10}, {50, 30}, {25, 20}, {95, 48}, {100, 50}, {62.5, 35}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", sorted, tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64(nil), 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]int64{7}, 95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestSliceP95IgnoresOneBurst(t *testing.T) {
	// Two clients, 8 slices of 100 ops each: every op takes 100, the top
	// five of a slice take 200, and one slice of one client is a burst of
	// 10000s. The plain p95 of the whole run sees the burst; the median of
	// the sixteen slice p95s does not.
	client := func(burst bool) []int64 {
		var lat []int64
		for s := 0; s < p95Slices; s++ {
			for i := 0; i < 100; i++ {
				v := int64(100)
				if i >= 95 {
					v = 200
				}
				if burst && s == 3 {
					v = 10000
				}
				lat = append(lat, v)
			}
		}
		return lat
	}
	quiet, bursty := client(false), client(true)
	// p95 of 100 samples interpolates at rank 94.05 between 100 and 200.
	const want = 105.0
	if got := sliceP95([][]int64{quiet, quiet}); math.Abs(got-want) > 1e-6 {
		t.Errorf("sliceP95 without a burst = %v, want %v", got, want)
	}
	if got := sliceP95([][]int64{quiet, bursty}); math.Abs(got-want) > 1e-6 {
		t.Errorf("sliceP95 with one bursty slice = %v, want %v", got, want)
	}
	if plain := percentile(sortedCopy(append(append([]int64(nil), quiet...), bursty...)), 95); plain <= want {
		t.Errorf("plain p95 = %v: the test's burst is too small to matter", plain)
	}
	if got := sliceP95([][]int64{{1, 2, 3}}); got != 0 {
		t.Errorf("sliceP95 of fewer ops than slices = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"disjoint children", []interval{{160, 170}, {110, 120}}, 80},
		{"overlapping children count once", []interval{{110, 150}, {130, 170}, {140, 160}}, 40},
		{"nested child", []interval{{110, 190}, {120, 130}}, 20},
		{"children sticking out are clipped", []interval{{50, 120}, {180, 300}}, 60},
		{"child outside the parent", []interval{{0, 50}, {250, 300}}, 100},
		{"children covering everything", []interval{{90, 150}, {150, 210}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestReduceSpans(t *testing.T) {
	// One search (op 0) from node 0 over relays 1 (real) and 2 (slowest),
	// every layer nested in the one above it.
	spans := []span{
		{kind: spanSearch, op: 0, relay: -1, start: 0, end: 1000},
		{kind: spanDeliver, op: 0, relay: 1, start: 100, end: 500},
		{kind: spanServe, op: 0, relay: 1, start: 200, end: 400},
		{kind: spanBackend, op: 0, relay: 1, start: 250, end: 350},
		{kind: spanEngine, op: 0, relay: 1, start: 290, end: 300},
		{kind: spanDeliver, op: 0, relay: 2, start: 300, end: 900},
		{kind: spanServe, op: 0, relay: 2, start: 400, end: 700},
		{kind: spanBackend, op: 0, relay: 2, start: 500, end: 600},
		{kind: spanEngine, op: 0, relay: 2, start: 540, end: 560},
		// Op 1 from node 1 delivers to itself: a bad target.
		{kind: spanSearch, op: 1, relay: -1, start: 2000, end: 2100},
		{kind: spanDeliver, op: 1, relay: 1, start: 2010, end: 2090},
	}
	lt := reduceSpans(spans, []int32{0, 1}, []int16{1, -1})
	if lt.delivers != 3 || lt.badTargets != 1 {
		t.Fatalf("delivers = %d, badTargets = %d, want 3 and 1", lt.delivers, lt.badTargets)
	}
	// Two delivers of one search to the same relay are a bad target too.
	twice := reduceSpans([]span{
		{kind: spanSearch, op: 0, relay: -1, start: 0, end: 100},
		{kind: spanDeliver, op: 0, relay: 2, start: 10, end: 40},
		{kind: spanDeliver, op: 0, relay: 2, start: 50, end: 90},
	}, []int32{0}, []int16{-1})
	if twice.badTargets != 1 {
		t.Fatalf("badTargets = %d for a relay delivered to twice, want 1", twice.badTargets)
	}
	check := func(name string, got []int64, want ...int64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s = %v, want %v", name, got, want)
			}
		}
	}
	check("searchWall", lt.searchWall, 1000, 100)
	check("searchSelf", lt.searchSelf, 200, 20) // 1000 - union [100,900); 100 - 80
	check("pathSkew", lt.pathSkew, 400)         // relay 2 ends at 900, the real path at 500
	check("deliverSelf", lt.deliverSelf, 200, 300, 80)
	check("serveSelf", lt.serveSelf, 100, 200, 0)
	check("backendSelf", lt.backendSelf, 90, 80, 0)
	check("engine", lt.engine, 10, 20, 0)
	// Slowest path is relay 2: 200 (search) + 300 + 200 + 80.
	check("namedOnSlowest", lt.namedOnSlowest, 780, 100)
}

// benchmarkFile is the document BENCHMARK.json must hold, built from the
// tables the benchmark prints from.
type benchmarkFile struct {
	Command    []string          `json:"command"`
	Paths      []string          `json:"paths"`
	RunSeconds int               `json:"run_seconds"`
	Workloads  []benchmarkNamed  `json:"workloads"`
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkNamed struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func declaredBenchmark() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: 10,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, benchmarkNamed{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		f.EndToEnd = append(f.EndToEnd, benchmarkMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		f.PerLayer = append(f.PerLayer, benchmarkMetric{Name: d.name, Unit: d.unit, Better: d.better})
	}
	return f
}

// TestBenchmarkJSONMatchesTables keeps the names, units, directions and
// bounds the benchmark prints equal to the ones BENCHMARK.json declares.
// UPDATE_BENCHMARK_JSON=1 rewrites the file from the tables.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	const path = "../BENCHMARK.json"
	want, err := json.MarshalIndent(declaredBenchmark(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if os.Getenv("UPDATE_BENCHMARK_JSON") == "1" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the benchmark's tables; run UPDATE_BENCHMARK_JSON=1 go test -run TestBenchmarkJSONMatchesTables\nwant:\n%s", path, want)
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(want))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s is declared twice", d.name)
		}
		seen[d.name] = true
		if len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("metric %s (%s): name or unit too long", d.name, d.unit)
		}
	}
}

// smokeOps is the per-client op count of the smoke tests.
const smokeOps = 100

// TestSmokeUntraced runs 200 ops of every workload with all checks on and
// expects every end-to-end metric to be reported and non-zero.
func TestSmokeUntraced(t *testing.T) {
	var adaptive *world // the three adaptive workloads share one
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			wd := adaptive
			if wd == nil || !w.adaptive {
				var err error
				if wd, err = newWorld(1, w.nodes, w.adaptive); err != nil {
					t.Fatal(err)
				}
				if w.adaptive {
					adaptive = wd
				}
			}
			quick := *w
			quick.setupReps = 1
			rep, err := runUntraced(&quick, wd, 0, smokeOps)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("%d of %d ops failed: %v", rep.failed, rep.attempted, rep.firstErr)
			}
			if want := smokeOps * w.clients; rep.attempted != want {
				t.Errorf("attempted %d ops, want %d", rep.attempted, want)
			}
			if w.kind == opSearch && !w.adaptive && rep.sumK != int64(worldKMax*rep.attempted) {
				t.Errorf("sum_k = %d, want kmax on every search (%d)", rep.sumK, worldKMax*rep.attempted)
			}
			for _, d := range endToEnd {
				if v, ok := rep.values[d.name]; !ok || v <= 0 {
					t.Errorf("%s = %v (reported %v), want a positive reading", d.name, v, ok)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced run on the two small workloads and on the
// in-process one, and checks the layers a workload claims to isolate.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("times twelve unit costs per workload")
	}
	reports := map[string]*report{}
	for _, name := range []string{"search_kmax_null_tcp", "relay_forward_mux_tcp", "search_adaptive_direct"} {
		w, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		wd, err := newWorld(2, w.nodes, w.adaptive)
		if err != nil {
			t.Fatal(err)
		}
		out := t.TempDir()
		rep, err := runTraced(w, wd, 4*time.Second, 20*smokeOps, out)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct() {
			t.Fatalf("%s: %d of %d ops failed: %v", name, rep.failed, rep.attempted, rep.firstErr)
		}
		if _, err := os.Stat(out + "/" + name + ".trace.json"); err != nil {
			t.Errorf("%s: trace file: %v", name, err)
		}
		for _, u := range unitCosts {
			if rep.values[u.name+"_ns"] <= 0 {
				t.Errorf("%s: unit cost %s was not timed", name, u.name)
			}
		}
		reports[name] = rep
	}

	null, fwd, direct := reports["search_kmax_null_tcp"].values, reports["relay_forward_mux_tcp"].values, reports["search_adaptive_direct"].values
	if got := null["conduit.deliver.per_op"]; got != worldKMax+1 {
		t.Errorf("search_kmax_null_tcp: %v delivers per search, want %d", got, worldKMax+1)
	}
	if got := fwd["conduit.deliver.per_op"]; got != 1 {
		t.Errorf("relay_forward_mux_tcp: %v delivers per forward, want 1", got)
	}
	if got := fwd["core.search.path_skew_us_p50"]; got != 0 {
		t.Errorf("relay_forward_mux_tcp: path skew %v, want 0 (one path)", got)
	}
	if got := null["nettrans.wire_bytes_per_op"]; got <= 0 {
		t.Errorf("search_kmax_null_tcp: no wire bytes counted")
	}
	if got := direct["nettrans.wire_bytes_per_op"]; got != 0 {
		t.Errorf("search_adaptive_direct: %v wire bytes per op, want 0 (no sockets)", got)
	}
	// The in-process conduit does nothing but call the relay.
	if got := direct["conduit.deliver.self_us_p50"]; got > 5 {
		t.Errorf("search_adaptive_direct: conduit.deliver self time %v us, want ≈0", got)
	}
	if got := direct["core.fakes_per_search"]; got <= 0 || got >= worldKMax {
		t.Errorf("search_adaptive_direct: %v fakes per search, want adaptive k inside (0, %d)", got, worldKMax)
	}
}
