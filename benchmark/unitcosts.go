package main

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/backend"
	"cyclosa/internal/core"
	"cyclosa/internal/enclave"
	"cyclosa/internal/nettrans"
	"cyclosa/internal/rps"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/securechan"
	"cyclosa/internal/telemetry"
)

// unitMinTime is how long one unit cost is timed for.
const unitMinTime = 150 * time.Millisecond

// unitInputs are the workload's own inputs the unit costs run on.
type unitInputs struct {
	r *run
	// stream is client 0's measured stream: its queries, its analyzers.
	stream []op
	// k is the workload's mean number of fakes, rounded.
	k int
	// recordBytes is the mean sealed record size seen at the conduit seam
	// (mean of request and response).
	recordBytes int
}

// unitCost is one layer's cost in isolation. setup returns the timed
// operation and a cleanup.
type unitCost struct {
	name  string
	setup func(in *unitInputs) (op func(i int) error, cleanup func(), err error)
}

func nothing() {}

// unitCosts are timed in a tight loop after the workload, through public
// functions only. Names are the per-layer metric prefixes: each reports
// <name>_ns and <name>_allocs.
var unitCosts = []unitCost{
	{"sensitivity.assess", func(in *unitInputs) (func(int) error, func(), error) {
		analyzers := in.r.sut.analyzers
		return func(i int) error {
			o := &in.stream[i%len(in.stream)]
			analyzers[o.node].Assess(o.query) // history as the run left it; not recorded
			return nil
		}, nothing, nil
	}},
	{"core.table_sample", func(in *unitInputs) (func(int) error, func(), error) {
		table := core.NewPastQueryTable(0, nil)
		table.AddAll(in.r.wd.trending)
		rng := rand.New(rand.NewSource(in.r.wd.seed))
		return func(int) error {
			if got := table.Sample(rng, in.k); len(got) != in.k {
				return fmt.Errorf("table sample returned %d of %d", len(got), in.k)
			}
			return nil
		}, nothing, nil
	}},
	{"rps.sample", func(in *unitInputs) (func(int) error, func(), error) {
		overlay := rps.NewNetwork(in.r.w.nodes, rps.Config{}, in.r.wd.seed)
		overlay.Run(20)
		node := overlay.Node(rps.Name(0))
		return func(int) error {
			if got := node.Sample(in.k + 1); len(got) == 0 {
				return fmt.Errorf("empty peer sample")
			}
			return nil
		}, nothing, nil
	}},
	{"securechan.seal_open", func(in *unitInputs) (func(int) error, func(), error) {
		a, b, err := sessionPair()
		if err != nil {
			return nil, nil, err
		}
		plain := make([]byte, in.recordBytes)
		var sealed, opened []byte
		return func(int) error {
			var err error
			if sealed, err = a.EncryptAppend(sealed[:0], plain); err != nil {
				return err
			}
			opened, err = b.DecryptAppend(opened[:0], sealed)
			return err
		}, func() { a.Close(); b.Close() }, nil
	}},
	{"enclave.call", func(in *unitInputs) (func(int) error, func(), error) {
		platform, err := enclave.NewPlatform("bench-unit", enclave.NewIAS())
		if err != nil {
			return nil, nil, err
		}
		encl := platform.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion})
		encl.RegisterECall("noop", func([]byte) ([]byte, error) { return nil, nil })
		args := make([]byte, in.recordBytes)
		return func(int) error {
			_, err := encl.Call("noop", args)
			return err
		}, encl.Destroy, nil
	}},
	{"searchengine.codec", func(in *unitInputs) (func(int) error, func(), error) {
		var buf []byte
		return func(i int) error {
			var page []searchengine.Result
			if in.r.w.adaptive {
				page = in.r.wd.engine.truthFor(in.stream[i%len(in.stream)].query)
			}
			buf = searchengine.AppendResults(buf[:0], page)
			_, _, err := searchengine.DecodeResults(buf)
			return err
		}, nothing, nil
	}},
	{"backend.stack", func(in *unitInputs) (func(int) error, func(), error) {
		stack := backend.NewStack(core.NullBackend{}, backend.Policy{})
		return func(int) error {
			_, err := stack.Search("bench-unit", "q", benchNow)
			return err
		}, nothing, nil
	}},
	{"accounting.limiter_allow", func(in *unitInputs) (func(int) error, func(), error) {
		limiter, err := accounting.NewLimiter(accounting.LimiterConfig{QPS: 1e9, Burst: 1 << 30})
		if err != nil {
			return nil, nil, err
		}
		return func(int) error { return limiter.Allow("bench-unit") }, nothing, nil
	}},
	{"telemetry.observe", func(in *unitInputs) (func(int) error, func(), error) {
		h := telemetry.NewRegistry().Histogram("bench_unit_seconds", "benchmark unit cost", telemetry.DefaultLatencyBuckets)
		return func(i int) error {
			h.Observe(time.Duration(i&1023) * time.Microsecond)
			return nil
		}, nothing, nil
	}},
	{"core.forward_direct", func(in *unitInputs) (func(int) error, func(), error) {
		net, err := core.NewNetwork(core.NetworkOptions{
			Nodes:      2,
			Seed:       in.r.wd.seed,
			BackendFor: func(string) core.Backend { return newBackend(in.r.w, in.r.wd, nil) },
		})
		if err != nil {
			return nil, nil, err
		}
		ids := net.NodeIDs()
		client := net.Node(ids[0])
		return func(i int) error {
			return net.RelayRoundTrip(client, ids[1], in.stream[i%len(in.stream)].query, benchNow)
		}, nothing, nil
	}},
	{"nettrans.deliver_echo", func(in *unitInputs) (func(int) error, func(), error) {
		srv := nettrans.NewServer(nettrans.ServerConfig{ID: "bench-echo", Handler: echoConduit{}})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, nil, err
		}
		tcp := nettrans.NewTCPConduit(nettrans.ConduitConfig{
			Resolve:    nettrans.StaticResolver(map[string]string{"relay": srv.Addr().String()}),
			PoolConfig: nettrans.PoolConfig{ID: "bench-echo-pool", RequestTimeout: 30 * time.Second},
		})
		payload := make([]byte, in.recordBytes)
		return func(int) error {
				resp, _, err := tcp.Deliver("client", "relay", payload, benchNow)
				if err == nil && len(resp) != len(payload) {
					err = fmt.Errorf("echo returned %d of %d bytes", len(resp), len(payload))
				}
				return err
			}, func() {
				tcp.Close()
				srv.Close()
			}, nil
	}},
	{"kernel.loopback_echo", func(in *unitInputs) (func(int) error, func(), error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			buf := make([]byte, in.recordBytes)
			for {
				if _, err := io.ReadFull(conn, buf); err != nil {
					return
				}
				if _, err := conn.Write(buf); err != nil {
					return
				}
			}
		}()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			ln.Close()
			<-done
			return nil, nil, err
		}
		payload := make([]byte, in.recordBytes)
		return func(int) error {
				if _, err := conn.Write(payload); err != nil {
					return err
				}
				_, err := io.ReadFull(conn, payload)
				return err
			}, func() {
				conn.Close()
				ln.Close()
				<-done
			}, nil
	}},
}

// echoConduit is the handler of the deliver_echo unit: the transport's own
// cost with no relay behind it.
type echoConduit struct{}

func (echoConduit) Deliver(_, _ string, payload []byte, _ time.Time) ([]byte, time.Duration, error) {
	return payload, 0, nil
}

// sessionPair attests two fresh enclaves to each other.
func sessionPair() (*securechan.Session, *securechan.Session, error) {
	ias := enclave.NewIAS()
	verifier := enclave.NewVerifier(ias, enclave.MeasureCode(core.EnclaveName, core.EnclaveVersion))
	var hs [2]*securechan.Handshaker
	for i := range hs {
		platform, err := enclave.NewPlatform(fmt.Sprintf("bench-unit-%d", i), ias)
		if err != nil {
			return nil, nil, err
		}
		encl := platform.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion})
		if hs[i], err = securechan.NewHandshaker(encl, verifier); err != nil {
			return nil, nil, err
		}
	}
	return securechan.EstablishPair(hs[0], hs[1])
}

// timeUnit times op for about unitMinTime (after a pilot that sizes the
// loop) and returns ns and heap allocations per call.
func timeUnit(op func(i int) error) (ns, allocs float64, err error) {
	loop := func(n int) (time.Duration, uint64, error) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := op(i); err != nil {
				return 0, 0, err
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		return elapsed, m1.Mallocs - m0.Mallocs, nil
	}
	const pilot = 256 // also warms caches, pools and lazily grown buffers
	elapsed, _, err := loop(pilot)
	if err != nil {
		return 0, 0, err
	}
	n := pilot
	if elapsed > 0 {
		n = int(int64(pilot) * int64(unitMinTime) / int64(elapsed))
	}
	if n < pilot {
		n = pilot
	}
	elapsed, mallocs, err := loop(n)
	if err != nil {
		return 0, 0, err
	}
	return float64(elapsed) / float64(n), float64(mallocs) / float64(n), nil
}

// runUnitCosts times every unit on the workload's inputs.
func runUnitCosts(in *unitInputs, out map[string]float64) error {
	for _, u := range unitCosts {
		op, cleanup, err := u.setup(in)
		if err != nil {
			return fmt.Errorf("unit %s: %w", u.name, err)
		}
		ns, allocs, err := timeUnit(op)
		cleanup()
		if err != nil {
			return fmt.Errorf("unit %s: %w", u.name, err)
		}
		out[u.name+"_ns"] = ns
		out[u.name+"_allocs"] = allocs
	}
	return nil
}
