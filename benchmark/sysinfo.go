package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"
)

// procField returns the value of the first "key: value" line of a /proc
// file, or "" when the file or the key is missing (not Linux).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMiB is the process's high-water resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	v := procField("/proc/self/status", "VmHWM")
	kb, err := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("read VmHWM from /proc/self/status: %q", v)
	}
	return kb / 1024, nil
}

// commit is the VCS revision the binary was built from, when the build
// recorded one (a checkout that is not a git repository records none).
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// stamp is what every output carries so a number can be traced back to the
// machine, build and load shape that produced it.
func stamp(w *workload, seed int64, sched *schedule) map[string]any {
	stream := make([]int, len(sched.measured))
	for c := range sched.measured {
		stream[c] = len(sched.measured[c])
	}
	transport := "in-process"
	if w.hosts > 0 {
		transport = "loopback-tcp"
	}
	return map[string]any{
		"workload":        w.name,
		"seed":            seed,
		"commit":          commit(),
		"go":              runtime.Version(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"nproc":           runtime.NumCPU(),
		"cpu":             procField("/proc/cpuinfo", "model name"),
		"load":            "closed-loop",
		"c":               w.clients,
		"hosts":           w.hosts,
		"nodes":           w.nodes,
		"transport":       transport,
		"stream_ops":      stream,
		"warmup_per_node": warmupPerNode,
	}
}

// runtimeSampler polls runtime/metrics every 100 ms during the trace run's
// untraced window.
type runtimeSampler struct {
	stop chan struct{}
	done sync.WaitGroup

	first, last   []metrics.Sample
	heapInuseMax  float64
	goroutinesMax float64
}

const (
	rmGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU   = "/cpu/classes/total:cpu-seconds"
	rmIdleCPU    = "/cpu/classes/idle:cpu-seconds"
	rmGCCycles   = "/gc/cycles/total:gc-cycles"
	rmHeapObject = "/memory/classes/heap/objects:bytes"
	rmHeapUnused = "/memory/classes/heap/unused:bytes"
	rmGoroutines = "/sched/goroutines:goroutines"
)

var runtimeMetricNames = []string{rmGCCPU, rmTotalCPU, rmIdleCPU, rmGCCycles, rmHeapObject, rmHeapUnused, rmGoroutines}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func sampleValue(s []metrics.Sample, name string) float64 {
	for i := range s {
		if s[i].Name == name {
			switch s[i].Value.Kind() {
			case metrics.KindUint64:
				return float64(s[i].Value.Uint64())
			case metrics.KindFloat64:
				return s[i].Value.Float64()
			}
		}
	}
	return 0
}

func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{stop: make(chan struct{}), first: readRuntime()}
	rs.done.Add(1)
	go func() {
		defer rs.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				rs.observe(readRuntime())
			case <-rs.stop:
				return
			}
		}
	}()
	return rs
}

func (rs *runtimeSampler) observe(s []metrics.Sample) {
	rs.last = s
	if v := sampleValue(s, rmHeapObject) + sampleValue(s, rmHeapUnused); v > rs.heapInuseMax {
		rs.heapInuseMax = v
	}
	if v := sampleValue(s, rmGoroutines); v > rs.goroutinesMax {
		rs.goroutinesMax = v
	}
}

// finish stops the sampler, waits for it and writes its four metrics.
func (rs *runtimeSampler) finish(out map[string]float64) {
	close(rs.stop)
	rs.done.Wait()
	rs.observe(readRuntime())
	delta := func(name string) float64 { return sampleValue(rs.last, name) - sampleValue(rs.first, name) }
	busy := delta(rmTotalCPU) - delta(rmIdleCPU)
	if busy > 0 {
		out["runtime.gc_cpu_share"] = delta(rmGCCPU) / busy
	}
	out["runtime.gc_cycles"] = delta(rmGCCycles)
	out["runtime.heap_inuse_mb_max"] = rs.heapInuseMax / (1 << 20)
	out["runtime.goroutines_max"] = rs.goroutinesMax
}
