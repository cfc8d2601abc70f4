// Package transport models the network substrate of the evaluation — and
// defines the Conduit seam every real or simulated data plane slots into.
//
// # Latency model
//
// Per-link latency distributions for the simulated deployments (Fig 8a/8b).
// Latencies are sampled and accounted, never slept, so long simulated
// horizons execute instantly. The paper measures end-to-end latencies
// on physical machines; absolute values here come from a calibrated model
// instead (medians chosen to match Fig 8a: direct ≈ 0.58 s, CYCLOSA
// ≈ 0.88 s, TOR ≈ 62 s), but the shape of the comparison — which system is
// faster, by what factor, how latency grows with k — is reproduced by
// construction of the same message paths.
//
// # The WAN matrix
//
// WANMatrix is the planet-scale counterpart: nodes hash into five
// geographic regions, each region pair carries an empirical one-way base
// latency and loss probability, and every delivery adds a heavy-tailed
// Pareto jitter draw from a splitmix64 stream keyed by (seed, link,
// delivery index) — latencies and losses are pure functions of the seed.
// internal/simnet draws from the matrix directly, so WAN conditions compose
// with the fault catalog.
//
// # The Conduit seam
//
// Conduit is the delivery boundary of the forward data plane: one encrypted
// request record in, one encrypted response record out. core.Network
// installs a direct in-process conduit by default; internal/simnet wraps any
// conduit with deterministic fault injection; internal/nettrans implements
// it over real TCP sockets. Because the seam composes, the chaos catalog
// and every protocol invariant checker run unchanged over loopback TCP.
//
// The ownership contract (documented on Conduit and audited at runtime by
// NewOwnershipChecker): the request payload may be read only for the
// duration of the call — it aliases the forward's pooled scratch; the
// returned response is valid only until the next delivery between the same
// pair and must be consumed before then. Use the checker in tests of every
// new Conduit implementation — it caught real aliasing bugs in the TCP one.
//
// # The submit seam
//
// Deliver blocks for the round trip, so a caller with k+1 records to send
// needs k+1 goroutines. Submitter is the asynchronous form of the same
// boundary: one client's batch of sealed records in, exactly one Completion
// per record out on a channel the caller supplies. core.Node.Search uses
// nothing else — it seals its k+1 records itself, submits once, and opens the
// answers as they arrive. core's in-process conduit serves a batch itself,
// on the submitting goroutine and a few pooled helpers, and gives a record
// that nobody could claim within a bound (its claimers wait on a slow
// engine) a worker of its own; a conduit that only has Deliver is adapted
// in core by running each Deliver on a worker goroutine, since such a
// Deliver may block.
//
// The rules (documented on Submitter): exactly once — answered, refused, cut
// by a teardown, timed out or failed before the wire, every record completes
// once and only once, which is what lets a caller pool and reuse its channel;
// never blocking — the caller guarantees the channel has room for every
// completion it is owed, so the goroutine that learns an outcome (a
// connection's read loop) can post it and go on; and buffer ownership — a
// record's payload may be read until its completion is posted, and a
// completion's response belongs to its receiver until it hands the
// Completion back through Release, once, error or not. That response does not
// depend on the pair's next delivery: nettrans.TCPConduit hands it over in
// the pooled frame it was read into, with no copy.
package transport
