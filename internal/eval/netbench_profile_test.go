package eval

import (
	"os"
	"testing"
)

// TestNetBenchProfile is a profiling harness, enabled via NETBENCH_PROFILE=1:
//
//	NETBENCH_PROFILE=1 go test -run TestNetBenchProfile -cpuprofile cpu.out ./internal/eval/
func TestNetBenchProfile(t *testing.T) {
	if os.Getenv("NETBENCH_PROFILE") == "" {
		t.Skip("set NETBENCH_PROFILE=1 to run")
	}
	v, err := measureConcurrent(NetBenchOptions{Seed: 1, Iterations: 60000, Warmup: 500, Concurrency: 4}, "profile probe")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tcp+coalesce c=4: %.0f ops/s, p50 %.0f ns, p95 %.0f ns, %.2f frames/flush",
		v.OpsPerSec, v.P50NsPerOp, v.P95NsPerOp, v.FramesPerFlush)
}
