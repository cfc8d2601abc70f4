// Package accounting is the admission and misbehavior-accounting plane of
// the reproduction: the quota and reputation bookkeeping that CYCLOSA's
// security argument (§VI) needs at scale.
//
// It provides three independent primitives, each wired into a different
// layer of the stack:
//
//   - Limiter: a sharded token-bucket per-client rate limiter, enforced by
//     a nettrans.Server in front of its data frames, *before* any enclave
//     work (decrypt, dispatch) is spent on a forward. X-Search's
//     measurements show an SGX proxy's throughput ceiling is set at the
//     admission edge, so shedding must happen before the expensive path,
//     not after. Allow fails an over-quota request with ErrClientThrottled;
//     the server refuses the frame with its throttled code, which reaches
//     the forwarding client as the typed core.ErrRelayThrottled.
//
//   - Counter / Handle: a thresholded net-commit accumulator for hot-path
//     statistics. Each owning goroutine (e.g. a per-peer relay session)
//     holds a Handle and pays only an uncontended atomic add per
//     operation; the shared counter is touched once per threshold
//     crossing, so heavy traffic produces O(commits) — not O(ops) —
//     cross-core contention, while Sum() stays exact by folding in every
//     handle's pending delta.
//
//   - Ledger: a PN-counter CRDT for per-node misbehavior/reputation
//     counts. Each replica increments only its own entry; merging takes
//     the elementwise maximum, so merges are idempotent, commutative and
//     associative — counts recorded during a network partition converge to
//     the exact totals after heal, with no loss and no double-count, and
//     no coordinator. Ledger state gossips between peers on its own
//     backward-additive frame type (see internal/nettrans).
package accounting
