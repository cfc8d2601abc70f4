package main

// metricDef declares one reported metric. The same table is written out in
// BENCHMARK.json; a test keeps the two equal.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the reference median by which an end-to-end
	// metric may worsen before a change is a regression.
	bound float64
}

// endToEnd are the metrics a user of the overlay (or its operator) sees.
// Every workload reports all of them, from an untraced run. The ninth
// end-to-end figure, failed_share, travels as the result line's own
// `failed` / `attempted` pair: it is 0 on a correct run and a metric that
// reads 0 cannot carry a relative bound.
//
// The bounds are at least three times the widest spread (interquartile range
// over the median) any workload showed across ten seeds on the 2-core dev
// box; ISSUE 11's tighter proposals (2% allocations, 3% bytes, 10% RSS) were
// measured on one seed, and the driver varies the seed from run to run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.12},
	{"latency_p50_us", "us", "lower", 0.10},
	{"latency_p95_us", "us", "lower", 0.20},
	{"cpu_us_per_op", "us", "lower", 0.10},
	{"allocs_per_op", "count", "lower", 0.03},
	{"alloc_bytes_per_op", "B", "lower", 0.07},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

// perLayer are the traced run's metrics, one layer (module) each.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{name: "core.search.self_us_p50", unit: "us", better: "lower"},
		{name: "core.search.self_us_p95", unit: "us", better: "lower"},
		{name: "core.search.path_skew_us_p50", unit: "us", better: "lower"},
		{name: "core.search.path_skew_us_p95", unit: "us", better: "lower"},
		{name: "conduit.deliver.self_us_p50", unit: "us", better: "lower"},
		{name: "conduit.deliver.self_us_p95", unit: "us", better: "lower"},
		{name: "conduit.deliver.per_op", unit: "count", better: "lower"},
		{name: "core.relay_serve.self_us_p50", unit: "us", better: "lower"},
		{name: "core.relay_serve.self_us_p95", unit: "us", better: "lower"},
		{name: "backend.search.self_us_p50", unit: "us", better: "lower"},
		{name: "backend.search.self_us_p95", unit: "us", better: "lower"},
		{name: "engine.search.us_p50", unit: "us", better: "lower"},
		{name: "nettrans.frames_per_flush", unit: "count", better: "higher"},
		{name: "nettrans.flushes_per_op", unit: "count", better: "lower"},
		{name: "nettrans.wire_bytes_per_op", unit: "B", better: "lower"},
		{name: "core.fakes_per_search", unit: "count", better: "higher"},
		{name: "core.retries_per_op", unit: "count", better: "lower"},
		{name: "core.blacklisted", unit: "count", better: "lower"},
		{name: "core.engine_failed", unit: "count", better: "lower"},
		{name: "enclave.calls_per_op", unit: "count", better: "lower"},
		{name: "backend.shed", unit: "count", better: "lower"},
		{name: "backend.retries", unit: "count", better: "lower"},
		{name: "engine.canned_misses", unit: "count", better: "lower"},
		{name: "runtime.gc_cpu_share", unit: "ratio", better: "lower"},
		{name: "runtime.gc_cycles", unit: "count", better: "lower"},
		{name: "runtime.heap_inuse_mb_max", unit: "MiB", better: "lower"},
		{name: "runtime.goroutines_max", unit: "count", better: "lower"},
	}
	for _, u := range unitCosts {
		defs = append(defs,
			metricDef{name: u.name + "_ns", unit: "ns", better: "lower"},
			metricDef{name: u.name + "_allocs", unit: "count", better: "lower"})
	}
	return append(defs,
		metricDef{name: "trace.search_wall_us_p50", unit: "us", better: "lower"},
		metricDef{name: "trace.residual_share", unit: "ratio", better: "lower"},
		metricDef{name: "trace.overhead_share", unit: "ratio", better: "lower"},
		metricDef{name: "harness.loop_share", unit: "ratio", better: "lower"},
		metricDef{name: "setup.world_s", unit: "s", better: "lower"},
	)
}
