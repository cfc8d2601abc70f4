// Package workload drives N client goroutines through a fixed number of
// operations (most often a Search on a core.Network node) and counts what
// succeeded and what failed, without adding shared state to the path under
// test.
//
// Every run is closed loop and count-bound: client c of n performs
// operations c, c+n, c+2n, ... back to back until the budget is spent. Its
// users are the figure replays, the simnet fault soaks, the race-proof
// determinism hammers in core and cyclosa-node's -n client. There is no
// clock in the package: an Op that wants its own latency times itself, and
// how fast a path is, as a claim, is measured by benchmark/run.sh.
//
// Queries come from a Generator: a fixed probe, a round-robin list, a
// Zipf-popularity stream over a queries.Universe vocabulary (web search
// popularity is heavy-tailed), or a trace replay over a queries.Log or a
// parsed query-log file (ParseTrace). Each client draws from its own
// deterministic stream, so a run issues exactly the same multiset of
// queries regardless of goroutine interleaving.
package workload
