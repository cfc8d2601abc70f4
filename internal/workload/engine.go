package workload

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Op is one unit of load: issue query as the given client. seq is a
// globally unique, deterministic operation index (client c of n performs
// seq c, c+n, c+2n, ...), so a trace-bound op can write its outcome into a
// pre-sized slice without synchronization. An Op is called concurrently
// from distinct client goroutines, never concurrently for the same client.
type Op func(client, seq int, query string) error

// Options configures a run.
type Options struct {
	// Clients is the number of concurrent client goroutines (default 1).
	Clients int
	// Ops is the total operation count, split across clients (client c
	// performs ceil((Ops-c)/Clients) ops), so a run issues a
	// scheduling-independent multiset of queries.
	Ops int
	// Generator supplies queries (default Fixed("workload capacity probe")).
	Generator Generator
	// FailFast stops every client after the first op error (the error is
	// still counted). Use for runs whose result is meaningless once any
	// operation fails, such as figure replays.
	FailFast bool
}

// ClientResult is the per-client slice of a run.
type ClientResult struct {
	// Ops is the number of successful operations.
	Ops uint64
	// Errors is the number of failed operations.
	Errors uint64
}

// Result aggregates a run.
type Result struct {
	// Clients is the client goroutine count of the run.
	Clients int
	// Ops is the total number of successful operations.
	Ops uint64
	// Errors is the total number of failed operations.
	Errors uint64
	// PerClient holds each client's counts.
	PerClient []ClientResult
	// FirstErr is the first op error observed (in completion order), nil
	// when every op succeeded. With FailFast it is the error that stopped
	// the run.
	FirstErr error
}

// Run drives op through opts.Ops operations and returns the counts. It
// returns an error only for unusable options; op failures are counted, not
// propagated.
func Run(op Op, opts Options) (*Result, error) {
	if op == nil {
		return nil, errors.New("workload: nil op")
	}
	if opts.Ops < 0 {
		return nil, fmt.Errorf("workload: negative ops %d", opts.Ops)
	}
	if opts.Clients <= 0 {
		opts.Clients = 1
	}
	if opts.Generator == nil {
		opts.Generator = Fixed("workload capacity probe")
	}

	res := &Result{Clients: opts.Clients, PerClient: make([]ClientResult, opts.Clients)}
	var (
		failed atomic.Bool
		errMu  sync.Mutex
		wg     sync.WaitGroup
	)
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			counts := &res.PerClient[c]
			stream := opts.Generator.Stream(c, opts.Clients)
			for seq := c; seq < opts.Ops; seq += opts.Clients {
				if opts.FailFast && failed.Load() {
					return
				}
				if err := op(c, seq, stream.Next()); err != nil {
					counts.Errors++
					errMu.Lock()
					if res.FirstErr == nil {
						res.FirstErr = err
					}
					errMu.Unlock()
					if opts.FailFast {
						failed.Store(true)
					}
					continue
				}
				counts.Ops++
			}
		}(c)
	}
	wg.Wait()
	for _, counts := range res.PerClient {
		res.Ops += counts.Ops
		res.Errors += counts.Errors
	}
	return res, nil
}
