// Package simnet is the deterministic fault-injection layer of the
// reproduction: it wraps the core.Network forward path behind the
// transport.Conduit seam and subjects the protocol to the adversities the
// paper claims resilience against (§VI), every one of them derived from a
// single seed so that any failure replays byte for byte.
//
// # Fault catalog
//
// Node- and link-level faults, applied by the driver through the Sim API
// (usually from a seed-derived Schedule):
//
//   - crash / restart — a crashed relay accepts no deliveries until
//     restarted; senders time out, blacklist it (§VI-b) and retry elsewhere.
//     The attestation control plane is assumed reliable: only the forward
//     data plane crosses the simnet.
//   - asymmetric partition — deliveries from A to B fail while B to A still
//     flow, the classic half-open network failure.
//
// Per-delivery stochastic faults, drawn from FaultConfig probabilities by a
// splitmix64 hash of (seed, client, relay, per-pair delivery index) — a
// pure function, so the fault a given pair sees on its n-th delivery is
// identical in every run with the same seed:
//
//   - drop — the request record vanishes; the sender pays the relay
//     timeout and blacklists.
//   - bit flip — one ciphertext bit is inverted in flight; AEAD
//     authentication must reject it.
//   - truncation — the record is cut short; the channel must reject it.
//   - replay — a previously captured record is delivered instead of the
//     fresh one; the channel's record counters must reject it.
//   - garbage / oversize — a Byzantine relay answers with fabricated bytes,
//     half the time of plausible length, half the time a deliberately
//     oversized page; the client must reject both without panicking.
//   - latency spike — the delivery succeeds but is charged extra seconds,
//     exercising tail-latency accounting without sleeping.
//
// # Invariants
//
// The Invariants checker runs continuously during a chaos run and records
// violations instead of panicking, so a failing run reports every broken
// property at once:
//
//   - plaintext confinement — queries in a chaos run carry a sentinel
//     substring; the sentinel must never appear in conduit traffic (always
//     encrypted on the wire) and must cross the enclave call gate only
//     inside the "engine" ocall, the frame modelling the enclave's TLS
//     tunnel to the search engine.
//   - nonce uniqueness — a securechan.NonceObserver proves every session's
//     AEAD nonce counters are strictly sequential in both directions, and
//     that no session reaches a counter an earlier session under the same
//     keys (Session.KeyFingerprint) already used, so no nonce is ever
//     reused under a key.
//   - no self-relay — no delivery may have the same node on both ends.
//
// # How a run is put together
//
// Every driver is the same four things, and only the first two differ from
// one driver to the next:
//
//   - events — what happens between rounds, a pure function of the seed:
//     GenSchedule's crash/restart/partition/heal steps, GenBrownoutSchedule's
//     engine brownouts, MembershipChurn's joins, leaves, partition draw and
//     blacklist event, GenWANChurn's Pareto sessions and flash crowds;
//   - a link or fault closure — what one exchange meets: on the forward
//     path the Sim's per-delivery fault draw, on the gossip plane the
//     closure given to rps.Network.SetLink (MembershipChurn: two-way
//     partition and blacklist refusal, over the network's pre-drawn drops;
//     WANChurn: region partition, then the transport.WANMatrix loss draw
//     and a round-trip budget);
//   - the workload — searches from the count-bound driver (workload.Run over
//     the sentinel pool), or on the gossip plane the round itself;
//   - invariants — checked every delivery or every round, and summed up by
//     the report's Check.
//
// Each loop exists once. Search under faults is the unexported harness in
// harness.go: it builds the network under a Sim with the checkers armed,
// applies schedule steps of every kind (node and link steps on the Sim,
// brownout steps on the node's backend.Faulty engine), runs the workload
// round, classifies each search (answered, clean protocol error, engine
// failure by taxonomy class) and sums the node, stack and injector
// counters. Chaos is the harness with delivery faults, null engines and a
// node-level schedule; ChaosReport.Check adds the accounting invariants
// (misbehavior observations equal injected content faults, relay counters
// equal conduit deliveries, the request counter equals delivery attempts,
// every search completed or failed cleanly). BackendChaos is the harness
// with faulty engines behind the resilience stack, no delivery faults, a
// brownout schedule and a recovery round; its Check demands that no engine
// failure is charged as relay misbehavior and that availability degrades
// gracefully and recovers fully. A brownout under delivery faults is a
// definition too (TestComposedFaultsAndBrownout). AccountingChaos drives
// ledgers, not searches: its loop stands alone, and only its report ends
// in the shared verdict.
//
// A gossip round is rps.Network.Round, the exchange functions
// nettrans.Membership runs over TCP. MembershipChurn bootstraps an overlay
// from a small seed set and checks two properties every round: convergence
// (every eligible node reachable from the first by following view edges —
// MembershipReport.ConvergedAt / ReconvergedAt) and no blacklist re-entry (a
// node blacklisted in round r never reappears in a blacklisting node's
// view, though it keeps gossiping adversarially). WANChurn is that shape at
// 10,000 nodes on the five-region matrix; WANChurnReport.Check asserts the
// scale-invariant bounds: the convergence fraction (reachable/alive,
// default 0.999 — the handful of this-round joiners are always still
// bootstrapping), the in-degree spread (max no more than 12x the mean,
// seeds excluded) and a finite partition-heal time. Both runs are serial
// and their logs byte-identical under a fixed seed: the events draw from
// the stream the round order is drawn from.
//
// # Replaying a failure
//
// A chaos run is fully described by its ChaosOptions: the schedule, the
// per-pair fault streams and the workload's query multiset are all pure
// functions of Seed. To replay a failing run, re-run with the same options;
// for a byte-identical fault event log, use a single client and K = 0 (with
// concurrent clients the schedule and multiset are still identical, but
// which search trips over which fault depends on goroutine interleaving).
// `cyclosa-bench -exp chaos -seed N` is the command-line entry point.
package simnet
