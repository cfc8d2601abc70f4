// Package rps implements gossip-based random peer sampling, the peer
// discovery protocol CYCLOSA relies on (§V-E). It follows the generic
// protocol of Jelasity et al., "Gossip-based peer sampling" (TOCS 2007):
// every node maintains a small partial view of node descriptors; each round
// it exchanges half its view with the oldest-known peer; the healer
// parameter (H) ages out descriptors of dead nodes and the swapper
// parameter (S) keeps the overlay random. The continuously changing random
// topology gives each CYCLOSA node an unbiased sample of alive peers to use
// as relays.
//
// # The transport seam
//
// The package is transport-agnostic: a Node exposes the active and passive
// halves of the exchange as pure functions over descriptor buffers
// (InitiateExchange / HandleExchange / CompleteExchange, plus FailExchange
// and Tick for the driver's bookkeeping), and a driver moves the buffers.
// Two drivers exist:
//
//   - Network (this package): the deterministic in-process driver, and the
//     only in-process round loop — core.Network, the evaluation and the
//     simnet churn scenarios all run on it. Direct function calls, seeded
//     randomness, dynamic membership (Add / Remove / Kill), uniform message
//     loss (SetDropRate) and a per-exchange link closure (SetLink) for loss
//     with structure: simnet.MembershipChurn's partition and blacklist
//     refusal, simnet.WANChurn's latency/loss matrix. A seeded network
//     (NewSeededNetwork) starts every node from the seed set alone, joins
//     new nodes from it, and merges it back into a view that has emptied —
//     a daemon's -bootstrap list.
//   - nettrans.Membership: the production driver — buffers travel as gossip
//     frames over TCP, and an attestation directory verifies every peer
//     that enters the view.
//
// # Descriptors and addresses
//
// A Descriptor carries identity, transport address and age. Addresses
// gossip along with identities, so a node can dial peers it has never met —
// this is what replaces static peer lists in the networked deployment. The
// view wire format used by the gossip frames is defined in wire.go
// (AppendView / DecodeView): `ver | count | {id | addr | age}*`, with the
// sender's own fresh descriptor first by convention.
//
// # Blacklisting is gossip suppression
//
// Blacklist removes a peer from the view and refuses to re-admit it on any
// later merge. Because exchange buffers are built from the view, a
// blacklisted peer is also never forwarded to others: the node suppresses
// the descriptor, it does not merely ignore it. The simnet membership
// invariant ("a blacklisted relay never re-enters a view") pins this
// behaviour under churn.
package rps
