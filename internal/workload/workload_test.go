package workload

import (
	"math"
	"sync/atomic"
	"testing"
	"time"

	"cyclosa/internal/queries"
)

func testUniverse() *queries.Universe {
	return queries.NewUniverse(queries.UniverseConfig{Seed: 3})
}

func mustZipf(t *testing.T, uni *queries.Universe, cfg ZipfConfig) Generator {
	t.Helper()
	gen, err := NewZipf(uni, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func drain(s Stream, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

func TestStreamsAreDeterministic(t *testing.T) {
	uni := testUniverse()
	trace := []string{"q0", "q1", "q2", "q3", "q4"}
	tests := []struct {
		name string
		gen  func() Generator
	}{
		{"fixed", func() Generator { return Fixed("probe") }},
		{"round-robin", func() Generator { return RoundRobin(trace) }},
		{"zipf", func() Generator { return mustZipf(t, uni, ZipfConfig{Seed: 11}) }},
		{"replay", func() Generator { return ReplayQueries(trace) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			for client := 0; client < 3; client++ {
				a := drain(tt.gen().Stream(client, 3), 40)
				b := drain(tt.gen().Stream(client, 3), 40)
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("client %d draw %d differs across identically-configured streams: %q vs %q",
							client, i, a[i], b[i])
					}
				}
			}
		})
	}
}

func TestReplayPartitionCoversTraceExactly(t *testing.T) {
	trace := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	gen := ReplayQueries(trace)
	clients := 3

	got := map[string]int{}
	for c := 0; c < clients; c++ {
		// Client c owns entries c, c+3, c+6, ... — ceil((len-c)/clients).
		n := (len(trace) - c + clients - 1) / clients
		for _, q := range drain(gen.Stream(c, clients), n) {
			got[q]++
		}
	}
	if len(got) != len(trace) {
		t.Fatalf("partitioned replay covered %d distinct queries, want %d", len(got), len(trace))
	}
	for q, n := range got {
		if n != 1 {
			t.Fatalf("query %q replayed %d times in one pass, want exactly once", q, n)
		}
	}
}

func TestZipfPopularityIsSkewed(t *testing.T) {
	gen := mustZipf(t, testUniverse(), ZipfConfig{Seed: 7, PoolSize: 64})
	counts := map[string]int{}
	for _, q := range drain(gen.Stream(0, 1), 4000) {
		counts[q]++
	}
	peak := 0
	for _, n := range counts {
		if n > peak {
			peak = n
		}
	}
	// Zipf s=1.2 over 64 ranks: the hottest query must dominate a uniform
	// draw (4000/64 ≈ 62) by a wide margin.
	if peak < 300 {
		t.Fatalf("hottest query drawn %d of 4000 times — not a Zipf popularity profile", peak)
	}
	if len(counts) < 10 {
		t.Fatalf("only %d distinct queries drawn — tail not exercised", len(counts))
	}
}

func TestRunOpsBoundCoversEverySeqOnce(t *testing.T) {
	const clients, ops = 7, 100
	var seen [ops]int32
	res, err := Run(
		func(client, seq int, query string) error {
			if query == "" {
				t.Error("empty query")
			}
			if seq < 0 || seq >= ops {
				t.Errorf("seq %d out of range", seq)
				return nil
			}
			atomic.AddInt32(&seen[seq], 1)
			return nil
		},
		Options{Clients: clients, Ops: ops, Generator: Fixed("probe")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != ops || res.Errors != 0 {
		t.Fatalf("ops=%d errors=%d, want %d/0", res.Ops, res.Errors, ops)
	}
	for seq, n := range seen {
		if n != 1 {
			t.Fatalf("seq %d executed %d times, want exactly once", seq, n)
		}
	}
	if len(res.PerClient) != clients {
		t.Fatalf("per-client results = %d, want %d", len(res.PerClient), clients)
	}
	var sum uint64
	for c, pc := range res.PerClient {
		want := uint64((ops - c + clients - 1) / clients)
		if pc.Ops != want {
			t.Fatalf("client %d performed %d ops, want %d", c, pc.Ops, want)
		}
		sum += pc.Ops
	}
	if sum != ops {
		t.Fatalf("per-client ops sum to %d, want %d", sum, ops)
	}
}

func TestRunCountsErrorsWithoutAborting(t *testing.T) {
	const ops = 90
	var wantErrs uint64
	for seq := 0; seq < ops; seq++ {
		if seq%3 == 0 {
			wantErrs++
		}
	}
	res, err := Run(
		func(_, seq int, _ string) error {
			if seq%3 == 0 {
				return errProbe
			}
			return nil
		},
		Options{Clients: 4, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != wantErrs || res.Ops != ops-wantErrs {
		t.Fatalf("ops=%d errors=%d, want %d/%d", res.Ops, res.Errors, ops-wantErrs, wantErrs)
	}
	if res.FirstErr == nil {
		t.Fatal("FirstErr not captured")
	}
}

func TestRunFailFastStopsAllClients(t *testing.T) {
	const clients, ops = 4, 400
	res, err := Run(
		func(_, seq int, _ string) error {
			if seq == 0 {
				return errProbe
			}
			time.Sleep(time.Millisecond) // give the stop flag time to spread
			return nil
		},
		Options{Clients: clients, Ops: ops, FailFast: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 {
		t.Fatal("the failing op was never counted")
	}
	if res.Ops+res.Errors >= ops {
		t.Fatalf("all %d ops ran despite FailFast (ops=%d errors=%d)", ops, res.Ops, res.Errors)
	}
	if res.FirstErr != errProbe {
		t.Fatalf("FirstErr = %v, want the stopping error", res.FirstErr)
	}
}

// TestZipfConfigBoundaries: explicit out-of-range configs must fail at
// construction with an error — never reach rand.NewZipf's nil return (a
// panic on the first draw) or a degenerate one-query pool.
func TestZipfConfigBoundaries(t *testing.T) {
	uni := testUniverse()
	tests := []struct {
		name    string
		cfg     ZipfConfig
		wantErr bool
	}{
		{"defaults", ZipfConfig{Seed: 1}, false},
		{"explicit valid", ZipfConfig{Seed: 1, PoolSize: 2, S: 1.01}, false},
		{"pool size 1", ZipfConfig{Seed: 1, PoolSize: 1}, true},
		{"pool size negative", ZipfConfig{Seed: 1, PoolSize: -5}, true},
		{"exponent 1 (rand.NewZipf nil)", ZipfConfig{Seed: 1, S: 1}, true},
		{"exponent below 1", ZipfConfig{Seed: 1, S: 0.5}, true},
		{"exponent negative", ZipfConfig{Seed: 1, S: -2}, true},
		{"exponent NaN", ZipfConfig{Seed: 1, S: math.NaN()}, true},
		{"exponent +Inf", ZipfConfig{Seed: 1, S: math.Inf(1)}, true},
		{"exponent -Inf", ZipfConfig{Seed: 1, S: math.Inf(-1)}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gen, err := NewZipf(uni, tt.cfg)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("NewZipf(%+v) succeeded, want error", tt.cfg)
				}
				return
			}
			if err != nil {
				t.Fatalf("NewZipf(%+v): %v", tt.cfg, err)
			}
			// The first draw is where a nil rand.Zipf would panic.
			if q := gen.Stream(0, 1).Next(); q == "" {
				t.Fatal("valid generator produced an empty query")
			}
		})
	}
	if _, err := NewZipf(nil, ZipfConfig{Seed: 1}); err == nil {
		t.Fatal("nil universe accepted")
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(nil, Options{}); err == nil {
		t.Fatal("nil op accepted")
	}
	if _, err := Run(func(int, int, string) error { return nil }, Options{Ops: -1}); err == nil {
		t.Fatal("negative ops accepted")
	}
	res, err := Run(func(int, int, string) error {
		t.Error("an op ran in a zero-op run")
		return nil
	}, Options{Clients: 3})
	if err != nil || res.Ops != 0 || res.Errors != 0 || len(res.PerClient) != 3 {
		t.Fatalf("zero-op run = %+v, %v; want three idle clients and no error", res, err)
	}
}

func TestParseGenerator(t *testing.T) {
	uni := testUniverse()
	tests := []struct {
		name    string
		spec    string
		uni     *queries.Universe
		trace   []string
		wantErr bool
	}{
		{"empty means fixed", "", uni, nil, false},
		{"fixed", "fixed", nil, nil, false},
		{"zipf", "zipf", uni, nil, false},
		{"zipf without universe", "zipf", nil, nil, true},
		{"trace", "trace", nil, []string{"a", "b"}, false},
		{"trace without trace", "trace", nil, nil, true},
		{"unknown", "bogus", uni, nil, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			gen, err := ParseGenerator(tt.spec, tt.uni, tt.trace, 1)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParseGenerator(%q) succeeded, want error", tt.spec)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseGenerator(%q): %v", tt.spec, err)
			}
			if q := gen.Stream(0, 1).Next(); q == "" {
				t.Fatalf("generator %q produced an empty query", tt.spec)
			}
		})
	}
}

var errProbe = &probeError{}

type probeError struct{}

func (*probeError) Error() string { return "probe failure" }
