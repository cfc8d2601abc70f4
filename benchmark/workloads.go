package main

import "fmt"

// setupWorkers is the goroutine count for set-up work that parallelises.
// A constant, like the client and host counts below: the dev box has
// nproc = 2, and constants keep the work identical on every machine.
const setupWorkers = 2

// opKind is what one measured operation calls.
type opKind int

const (
	// opSearch is one core.Node.Search: the whole protected search.
	opSearch opKind = iota
	// opForward is one core.Network.RelayRoundTrip: a single forward.
	opForward
)

// workload is one set of inputs and one load shape. All workloads are closed
// loops in a single process; the *_tcp ones cross loopback TCP.
type workload struct {
	name string
	why  string
	kind opKind
	// nodes is the network size; one node per user on adaptive workloads.
	nodes int
	// clients is c, the closed-loop client goroutine count. Each client
	// drives its own disjoint set of nodes (node i belongs to client i mod
	// c), so a node never has two operations in flight.
	clients int
	// hosts is the number of nettrans.Server hosts the nodes are spread
	// over (node i lives on host i mod hosts); 0 means no Conduit hook at
	// all — in-process delivery, no sockets.
	hosts int
	// adaptive selects the full substrate: per-user analyzers primed with
	// the train queries, the canned engine behind a backend.Stack. Without
	// it every query is assessed sensitive (k = kmax), there is no history
	// and relays front core.NullBackend.
	adaptive bool
	// opsPerClient is the frozen length of one client's operation stream.
	// A run with -seconds 0 executes all of it; a timed run a prefix.
	opsPerClient int
	// perNodeOps caps the measured queries taken from each user's test
	// stream (0 = all of them).
	perNodeOps int
	// setupReps is how many times an untraced run sets the system up;
	// setup_s is the median. A set-up of milliseconds needs more
	// repetitions than one of a second to read steadily.
	setupReps int
}

// The five workloads. Names are identifiers: later issues state their claims
// in them. Op counts were sized on the 2-core dev box at seed 1 so that a
// -seconds 0 run measures 8–30 s.
var workloads = []workload{
	{
		name:      "search_adaptive_tcp",
		why:       "headline path at saturation: assess, k fakes, k+1 relays over sockets, engine, filter; every layer works",
		kind:      opSearch,
		nodes:     worldUsers,
		clients:   2,
		hosts:     2,
		adaptive:  true,
		setupReps: 3,
	},
	{
		name:       "search_adaptive_serial_tcp",
		why:        "unloaded latency: one search in flight, so the slowest of its k+1 paths sets the time; linger must not cost here",
		kind:       opSearch,
		nodes:      worldUsers,
		clients:    1,
		hosts:      2,
		adaptive:   true,
		perNodeOps: 150,
		setupReps:  3,
	},
	{
		name:      "search_adaptive_direct",
		why:       "same searches with no Conduit hook: bypasses nettrans, so a transport change must show no change here",
		kind:      opSearch,
		nodes:     worldUsers,
		clients:   2,
		hosts:     0,
		adaptive:  true,
		setupReps: 3,
	},
	{
		name:         "search_kmax_null_tcp",
		why:          "always k=7, empty pages, no history: nettrans, securechan, enclave gate and core forward do nearly all the work",
		kind:         opSearch,
		nodes:        16,
		clients:      2,
		hosts:        2,
		opsPerClient: 100_000,
		setupReps:    25,
	},
	{
		name:         "relay_forward_mux_tcp",
		why:          "relay operator's view: two clients' forwards group-committed on one pooled connection to one relay",
		kind:         opForward,
		nodes:        3,
		clients:      2,
		hosts:        1,
		opsPerClient: 600_000,
		setupReps:    25,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// op is one scheduled operation: the node that issues it and its query.
type op struct {
	node  int32
	query string
}

// schedule is the whole operation plan of a run, made before the clock
// starts so the measured loop only indexes it.
type schedule struct {
	// warmup[c] and measured[c] are client c's streams, in issue order.
	warmup   [][]op
	measured [][]op
	// relay is the forward target of an opForward workload (the last node).
	relay int
}

// newSchedule lays out every client's stream: round-robin over the client's
// own nodes, each node's queries in log order, one pass, nothing repeated on
// adaptive workloads.
func newSchedule(w *workload, wd *world) *schedule {
	s := &schedule{
		warmup:   make([][]op, w.clients),
		measured: make([][]op, w.clients),
		relay:    w.nodes - 1,
	}
	for c := 0; c < w.clients; c++ {
		var mine []int32
		for n := c; n < w.nodes; n += w.clients {
			if w.kind == opForward && n == s.relay {
				continue // the relay only serves
			}
			mine = append(mine, int32(n))
		}
		s.warmup[c], s.measured[c] = clientStream(w, wd, mine)
	}
	return s
}

// limit cuts every client's measured stream to at most maxOps operations;
// 0 leaves the schedule whole.
func (s *schedule) limit(maxOps int) {
	for c, ops := range s.measured {
		if maxOps > 0 && len(ops) > maxOps {
			s.measured[c] = ops[:maxOps]
		}
	}
}

// clientStream builds one client's warm-up and measured streams over its
// nodes.
func clientStream(w *workload, wd *world, mine []int32) (warmup, measured []op) {
	if !w.adaptive {
		// No history and no result check: the query text only has to be a
		// plausible size, so the trending stream is cycled.
		total := w.opsPerClient + warmupPerNode*len(mine)
		for i := 0; i < total; i++ {
			o := op{node: mine[i%len(mine)], query: wd.trending[i%len(wd.trending)]}
			if i < warmupPerNode*len(mine) {
				warmup = append(warmup, o)
			} else {
				measured = append(measured, o)
			}
		}
		return warmup, measured
	}
	longest := 0
	for _, n := range mine {
		if len(wd.test[n]) > longest {
			longest = len(wd.test[n])
		}
	}
	if w.perNodeOps > 0 && longest > warmupPerNode+w.perNodeOps {
		longest = warmupPerNode + w.perNodeOps
	}
	for j := 0; j < longest; j++ {
		for _, n := range mine {
			if j >= len(wd.test[n]) {
				continue
			}
			o := op{node: n, query: wd.test[n][j]}
			if j < warmupPerNode {
				warmup = append(warmup, o)
			} else {
				measured = append(measured, o)
			}
		}
	}
	return warmup, measured
}
