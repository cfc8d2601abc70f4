package eval

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestRunNetBench(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time network benchmark")
	}
	r, err := RunNetBench(NetBenchOptions{Seed: 1, Iterations: 300, Warmup: 50, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.DirectNsPerOp <= 0 || r.TCPNsPerOp <= 0 || r.TCPOpsPerSec <= 0 || r.TCPConcurrentOpsPerSec <= 0 {
		t.Fatalf("non-positive measurement: %+v", r)
	}
	if r.TCPNsPerOp <= r.DirectNsPerOp {
		// Loopback TCP cannot beat the in-process call; if it does the TCP
		// phase silently fell back to the direct conduit.
		t.Fatalf("TCP (%.0f ns) not slower than direct (%.0f ns): transport not engaged", r.TCPNsPerOp, r.DirectNsPerOp)
	}

	wantVariants := []string{"direct", "tcp+coalesce"}
	if len(r.Variants) != len(wantVariants) {
		t.Fatalf("%d variants, want %d: %+v", len(r.Variants), len(wantVariants), r.Variants)
	}
	for i, v := range r.Variants {
		if v.Name != wantVariants[i] {
			t.Fatalf("variant %d = %q, want %q", i, v.Name, wantVariants[i])
		}
		if v.NsPerOp <= 0 || v.OpsPerSec <= 0 {
			t.Fatalf("variant %s: non-positive measurement: %+v", v.Name, v)
		}
		if v.P50NsPerOp <= 0 || v.P95NsPerOp < v.P50NsPerOp {
			t.Fatalf("variant %s: implausible percentiles p50=%.0f p95=%.0f", v.Name, v.P50NsPerOp, v.P95NsPerOp)
		}
		if v.WarmupOps <= 0 {
			t.Fatalf("variant %s: warmup not reported", v.Name)
		}
	}
	for _, v := range r.Variants[1:] {
		// Every TCP variant dials at least once before measurement; the cold
		// start must be reported apart from the steady-state figures.
		if v.ColdStartNs <= 0 {
			t.Fatalf("variant %s: cold start not reported", v.Name)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_net.json")
	if err := r.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back NetBenchResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.TCPNsPerOp != r.TCPNsPerOp || back.Benchmark == "" {
		t.Fatalf("JSON round trip mangled the result: %+v", back)
	}
	if len(back.Variants) != len(wantVariants) {
		t.Fatalf("JSON round trip dropped variants: %+v", back.Variants)
	}
}

// TestNetBenchHistoryCarryForward: writing over an existing BENCH_net.json
// must fold the old summary (and its history) into the new file's history,
// newest first — the cross-PR throughput trajectory.
func TestNetBenchHistoryCarryForward(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_net.json")
	old := &NetBenchResult{
		Benchmark:              "x",
		TCPConcurrentOpsPerSec: 42054.7,
		TCPNsPerOp:             29797,
		GeneratedAt:            "2026-07-01T00:00:00Z",
		History: []NetBenchHistoryEntry{
			{GeneratedAt: "2026-06-01T00:00:00Z", TCPConcurrentOpsPerSec: 30000},
		},
	}
	if err := old.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	fresh := &NetBenchResult{
		Benchmark:              "x",
		TCPConcurrentOpsPerSec: 90000,
		GeneratedAt:            "2026-08-01T00:00:00Z",
	}
	if err := fresh.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back NetBenchResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.History) != 2 {
		t.Fatalf("history length %d, want 2: %+v", len(back.History), back.History)
	}
	if back.History[0].TCPConcurrentOpsPerSec != 42054.7 || back.History[1].TCPConcurrentOpsPerSec != 30000 {
		t.Fatalf("history order wrong: %+v", back.History)
	}
}
