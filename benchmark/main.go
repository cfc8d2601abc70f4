// Command benchmark is the repository's one performance ruler: five
// workloads over a protected search, eight bounded end-to-end metrics plus
// the failed share, and an outside-in per-layer trace. See README.md.
//
//	benchmark -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// runs one workload and prints its metrics, the last line as one JSON
// object. Without -workload every workload runs, each in a child process of
// its own (peak RSS is per process); -aa runs every workload twice and
// checks the two sets against the bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart is as close to process start as Go code gets.
var processStart = time.Now()

// tracedOpsDivisor: the traced run measures a quarter of the stream.
const tracedOpsDivisor = 4

// loopShareLimit is the harness self-check: the measured loop with a no-op
// in place of the operation must cost less than this share of the real one.
const loopShareLimit = 0.02

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workloadName := flag.String("workload", "", "run one workload (default: every workload, each in its own process)")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 0, "measure for this many seconds (0: the whole frozen op stream)")
	trace := flag.Int("trace", 0, "1: the separate traced run, reporting the per-layer metrics")
	aa := flag.Bool("aa", false, "run every workload twice and check the two sets against the bounds")
	flag.Parse()

	var err error
	switch {
	case flag.NArg() > 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case *seconds < 0:
		err = fmt.Errorf("-seconds must not be negative, got %d", *seconds)
	case *aa && *trace == 1:
		err = errors.New("-aa compares end-to-end metrics, which only untraced runs report; drop -trace 1")
	case *aa && *workloadName != "":
		err = errors.New("-aa runs every workload; it cannot be combined with -workload")
	case *workloadName == "":
		err = runAll(*seed, *seconds, *trace, *aa)
	default:
		err = runOne(*workloadName, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its report.
func runOne(name string, seed int64, limit time.Duration, traced bool) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	worldStart := time.Now()
	wd, err := newWorld(seed, w.nodes, w.adaptive)
	if err != nil {
		return err
	}
	worldTook := time.Since(worldStart).Seconds()
	var rep *report
	if traced {
		rep, err = runTraced(w, wd, limit, 0, traceDir)
	} else {
		rep, err = runUntraced(w, wd, limit, 0)
	}
	if err != nil {
		return err
	}
	if traced {
		rep.values["setup.world_s"] = worldTook
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("setup.world_s %.3f s (inputs generated from the seed; not part of setup_s)", worldTook))
	}
	rep.print()
	if !rep.correct() {
		return fmt.Errorf("%s: %d of %d ops failed a check; first: %v", w.name, rep.failed, rep.attempted, rep.firstErr)
	}
	return nil
}

// report is everything one single-workload run prints.
type report struct {
	stamp     map[string]any
	defs      []metricDef
	values    map[string]float64
	attempted int
	failed    int
	firstErr  error
	samples   int
	sumK      int64
	notes     []string
}

func (r *report) correct() bool { return r.failed == 0 && r.firstErr == nil }

// fail records a failed end-of-run check.
func (r *report) fail(format string, args ...any) {
	if r.firstErr == nil {
		r.firstErr = fmt.Errorf(format, args...)
	}
}

func (r *report) print() {
	keys := make([]string, 0, len(r.stamp))
	for k := range r.stamp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%v", k, r.stamp[k])
	}
	fmt.Printf("#%s\n", sb.String())
	fmt.Printf("attempted %d\nfailed %d\nfailed_share %g ratio\nlatency_samples %d\nsum_k %d\n",
		r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)), r.samples, r.sumK)
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue, len(r.defs))}
	for _, d := range r.defs {
		v := r.values[d.name]
		fmt.Printf("%-34s %14.4f %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		panic(err) // a result of finite floats always marshals
	}
	fmt.Printf("%s\n", line)
}

// endToEndValues turns a measured window into the end-to-end metrics (all
// but setup_s and peak_rss_mb, which belong to the run, not the window).
func endToEndValues(win *window, out map[string]float64) {
	ops := float64(win.ops)
	var all []int64
	for _, lat := range win.lat {
		all = append(all, lat...)
	}
	out["ops_per_s"] = ops / win.wall.Seconds()
	out["latency_p50_us"] = percentile(sortedCopy(all), 50) / 1e3
	out["latency_p95_us"] = sliceP95(win.lat) / 1e3
	out["cpu_us_per_op"] = float64(win.cpu.Microseconds()) / ops
	out["allocs_per_op"] = float64(win.mallocs) / ops
	out["alloc_bytes_per_op"] = float64(win.allocBytes) / ops
}

// endOfRunChecks are the checks on a whole window.
func (r *report) endOfRunChecks(w *workload, win *window) {
	r.attempted, r.failed, r.samples, r.sumK = win.ops, win.failed, win.ops, win.sumK
	if win.firstErr != nil {
		r.firstErr = win.firstErr
	}
	if win.ops == 0 {
		r.fail("no operation completed")
		return
	}
	// Every fake reached an engine: k+1 forwards per search left the
	// clients, and on a fault-free network none was retried.
	want := uint64(win.sumK) + uint64(win.ops)
	if win.delta.requests != want {
		r.fail("%d forwards were issued, want Σ(K+1) = %d", win.delta.requests, want)
	}
	if w.adaptive && win.delta.engineServed != want {
		r.fail("the engine received %d queries, want Σ(K+1) = %d", win.delta.engineServed, want)
	}
	if win.delta.shed != 0 || win.delta.retries != 0 {
		r.fail("backend stack shed %d calls and retried %d on a healthy engine", win.delta.shed, win.delta.retries)
	}
}

// setUp builds the system and runs the warm-up; its wall time is one
// setup_s sample.
func setUp(w *workload, wd *world, sched *schedule, tr *tracer) (*run, time.Duration, error) {
	start := time.Now()
	s, err := newSUT(w, wd, tr)
	if err != nil {
		return nil, 0, err
	}
	r := &run{w: w, wd: wd, sched: sched, sut: s}
	if err := r.warmup(); err != nil {
		s.close()
		return nil, 0, err
	}
	r.tr = tr // spans start with the measured window
	return r, time.Since(start), nil
}

// runUntraced is the run the end-to-end numbers come from: no wrapper, no
// sampler, nothing of the benchmark's between the layers. maxOps > 0 cuts
// every client's stream short (the smoke tests).
func runUntraced(w *workload, wd *world, limit time.Duration, maxOps int) (*report, error) {
	sched := newSchedule(w, wd)
	sched.limit(maxOps)
	rep := &report{stamp: stamp(w, wd.seed, sched), defs: endToEnd, values: make(map[string]float64)}

	// Set up w.setupReps times, tearing all but the last down again, and
	// report the median, so one slow attestation burst does not move
	// setup_s. Every repetition starts from fresh analyzers, so replaying
	// the warm-up queries repeats no query within one history.
	var r *run
	var err error
	setups := make([]int64, 0, w.setupReps)
	for i := 0; i < w.setupReps; i++ {
		if r != nil {
			if err := r.sut.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		if r, took, err = setUp(w, wd, sched, nil); err != nil {
			return nil, err
		}
		setups = append(setups, int64(took))
	}
	defer r.sut.close()
	rep.values["setup_s"] = percentile(sortedCopy(setups), 50) / 1e9
	rep.notes = append(rep.notes, fmt.Sprintf("process start to first measured op: %.3f s (world + %d set-ups)", time.Since(processStart).Seconds(), w.setupReps))

	win, err := r.measure(limit, r.realOp)
	if err != nil {
		return nil, err
	}
	rep.endOfRunChecks(w, win)
	if win.ops > 0 {
		endToEndValues(win, rep.values)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rep.values["peak_rss_mb"] = rss
	return rep, nil
}

// runTraced is the separate traced run: an untraced window for the layers'
// own counters and the tracing overhead, then the same ops on a fresh system
// with the span wrappers in, then the unit costs and the harness self-check.
// maxOps 0 means a quarter of the stream; the trace file goes to outDir.
func runTraced(w *workload, wd *world, limit time.Duration, maxOps int, outDir string) (*report, error) {
	sched := newSchedule(w, wd)
	if maxOps == 0 {
		for _, ops := range sched.measured {
			if n := len(ops) / tracedOpsDivisor; n > maxOps {
				maxOps = n
			}
		}
	}
	sched.limit(maxOps)
	rep := &report{stamp: stamp(w, wd.seed, sched), defs: perLayer, values: make(map[string]float64)}
	v := rep.values

	// Window A: untraced, same ops. Counters and runtime samples.
	plain, _, err := setUp(w, wd, sched, nil)
	if err != nil {
		return nil, err
	}
	sampler := startRuntimeSampler()
	winA, err := plain.measure(limit/2, plain.realOp)
	sampler.finish(v)
	if cerr := plain.sut.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep.endOfRunChecks(w, winA)
	if winA.ops == 0 {
		return rep, nil
	}
	opsA := float64(winA.ops)
	d := winA.delta
	if d.flushes > 0 {
		v["nettrans.frames_per_flush"] = float64(d.frames) / float64(d.flushes)
	}
	v["nettrans.flushes_per_op"] = float64(d.flushes) / opsA
	v["nettrans.wire_bytes_per_op"] = float64(d.wireBytes) / opsA
	v["core.fakes_per_search"] = float64(d.fakesSent) / opsA
	v["core.retries_per_op"] = (float64(d.requests) - float64(winA.sumK) - opsA) / opsA
	v["core.blacklisted"] = float64(d.blacklisted)
	v["core.engine_failed"] = float64(d.engineFailed)
	v["enclave.calls_per_op"] = float64(d.gateCalls) / opsA
	v["backend.shed"] = float64(d.shed)
	v["backend.retries"] = float64(d.retries)

	// Window B: the span wrappers at the four seams.
	total := 0
	for _, ops := range sched.measured {
		total += len(ops)
	}
	ids := plain.sut.ids
	tr := newTracer(ids, total)
	traced, _, err := setUp(w, wd, sched, tr)
	if err != nil {
		return nil, err
	}
	defer traced.sut.close()
	traced.realRelay = make([]int16, total)
	for i := range traced.realRelay {
		traced.realRelay[i] = -1
	}
	winB, err := traced.measure(limit/2, traced.realOp)
	if err != nil {
		return nil, err
	}
	if winB.failed > 0 {
		rep.failed += winB.failed
		rep.fail("traced window: %v", winB.firstErr)
	}
	rep.attempted += winB.ops
	if wd.engine != nil {
		v["engine.canned_misses"] = float64(wd.engine.missCount())
	}

	spans, dropped := tr.recorded()
	if dropped > 0 {
		rep.fail("%d spans did not fit the preallocated trace", dropped)
	}
	clientOf := traced.clientOf()
	lt := reduceSpans(spans, clientOf, traced.realRelay)
	if lt.badTargets > 0 {
		rep.fail("%d searches delivered twice to one relay or to their own node", lt.badTargets)
	}
	p := func(xs []int64, q float64) float64 { return percentile(sortedCopy(xs), q) / 1e3 }
	v["core.search.self_us_p50"], v["core.search.self_us_p95"] = p(lt.searchSelf, 50), p(lt.searchSelf, 95)
	v["core.search.path_skew_us_p50"], v["core.search.path_skew_us_p95"] = p(lt.pathSkew, 50), p(lt.pathSkew, 95)
	v["conduit.deliver.self_us_p50"], v["conduit.deliver.self_us_p95"] = p(lt.deliverSelf, 50), p(lt.deliverSelf, 95)
	v["core.relay_serve.self_us_p50"], v["core.relay_serve.self_us_p95"] = p(lt.serveSelf, 50), p(lt.serveSelf, 95)
	v["backend.search.self_us_p50"], v["backend.search.self_us_p95"] = p(lt.backendSelf, 50), p(lt.backendSelf, 95)
	v["engine.search.us_p50"] = p(lt.engine, 50)
	if winB.ops > 0 {
		v["conduit.deliver.per_op"] = float64(lt.delivers) / float64(winB.ops)
		v["trace.overhead_share"] = 1 - (float64(winB.ops)/winB.wall.Seconds())/(opsA/winA.wall.Seconds())
	}
	if wall := p(lt.searchWall, 50); wall > 0 {
		v["trace.search_wall_us_p50"] = wall
		v["trace.residual_share"] = 1 - p(lt.namedOnSlowest, 50)/wall
	}
	path, err := writeTrace(outDir, w.name, rep.stamp, spans, ids, clientOf)
	if err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d spans recorded, the first %d ops' written to %s", len(spans), traceFileOps, path))

	// Unit costs on this workload's own inputs.
	in := &unitInputs{r: traced, stream: sched.measured[0], k: int(math.Round(float64(winA.sumK) / opsA))}
	if lt.delivers > 0 {
		in.recordBytes = int(tr.recordBytes.Load()) / (2 * lt.delivers)
	}
	if err := runUnitCosts(in, v); err != nil {
		return nil, err
	}

	// Harness self-check: the same loop, a no-op in place of the operation.
	bare := *traced
	bare.tr = nil
	winN, err := bare.measure(0, bare.noopOp())
	if err != nil {
		return nil, err
	}
	share := (winN.wall.Seconds() / float64(winN.ops)) / (winA.wall.Seconds() / opsA)
	v["harness.loop_share"] = share
	if share >= loopShareLimit {
		rep.fail("the harness loop alone costs %.1f%% of the measured wall (limit %.0f%%)", 100*share, 100*loopShareLimit)
	}
	return rep, nil
}

// traceDir is where trace files go, relative to the working directory (the
// root of the checkout).
const traceDir = "benchmark/out"

// runAll runs every workload in a child process each and, with aa, twice.
func runAll(seed int64, seconds, trace int, aa bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(w *workload) (*result, int64, error) {
		cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output() // waits for the child
		os.Stdout.Write(out)
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return nil, 0, fmt.Errorf("%s: no result line: %w", w.name, errors.Join(runErr, err))
		}
		var sumK int64
		for _, l := range lines {
			if v, ok := strings.CutPrefix(l, "sum_k "); ok {
				sumK, _ = strconv.ParseInt(v, 10, 64)
			}
		}
		if runErr != nil {
			return &res, sumK, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return &res, sumK, nil
	}

	start := time.Now()
	var problems []error
	for i := range workloads {
		w := &workloads[i]
		fmt.Printf("## %s: %s\n", w.name, w.why)
		a, sumA, err := child(w)
		if err != nil {
			problems = append(problems, err)
			continue
		}
		if !aa {
			continue
		}
		fmt.Printf("## %s: second run\n", w.name)
		b, sumB, err := child(w)
		if err != nil {
			problems = append(problems, err)
			continue
		}
		// Σ K is a constant of the seed only when both runs execute the
		// same ops, which a time limit does not guarantee.
		if seconds == 0 && sumA != sumB {
			problems = append(problems, fmt.Errorf("%s: sum_k %d in the first run, %d in the second", w.name, sumA, sumB))
		}
		for _, d := range endToEnd {
			worse := worseBy(d, a.Metrics[d.name].Value, b.Metrics[d.name].Value)
			verdict := "ok"
			if worse > d.bound {
				verdict = "OUTSIDE BOUND"
				problems = append(problems, fmt.Errorf("%s %s: the two runs differ by %.1f%%, bound %.0f%%", w.name, d.name, 100*worse, 100*d.bound))
			}
			fmt.Printf("aa %-28s %-20s %14.4f %14.4f  %5.1f%% of %2.0f%%  %s\n", w.name, d.name,
				a.Metrics[d.name].Value, b.Metrics[d.name].Value, 100*worse, 100*d.bound, verdict)
		}
	}
	fmt.Printf("## all workloads: %.1f s\n", time.Since(start).Seconds())
	return errors.Join(problems...)
}

// worseBy is the larger share by which one of two readings of the same
// metric is worse than the other.
func worseBy(d metricDef, a, b float64) float64 {
	lo, hi := math.Min(a, b), math.Max(a, b)
	if lo <= 0 {
		return math.Inf(1)
	}
	if d.better == "higher" {
		return (hi - lo) / hi // the low reading is the worse one, against the high
	}
	return (hi - lo) / lo
}
