package transport

import "time"

// Conduit is the delivery seam of the forward data plane: it carries one
// encrypted request record from a client node to a relay node and returns
// the relay's encrypted response record. core.Network installs a direct
// in-process conduit by default; internal/simnet wraps it with a
// deterministic fault-injection layer (crashes, partitions, tampering,
// replay, Byzantine responses) without the protocol code knowing.
//
// The injected duration is extra link latency to charge to the path on top
// of the model-sampled latency (zero for the direct conduit); it lets a
// wrapper express latency spikes without sleeping.
//
// Ownership: payload may be mutated or retained only for the duration of
// the call (it aliases the caller's per-pair scratch buffer); the returned
// response is valid only until the next delivery between the same pair and
// must be consumed before then, exactly like the relay-owned scratch it
// usually points into. OwnershipChecker wraps any implementation and audits
// this contract at runtime — use it in tests of new Conduit implementations.
type Conduit interface {
	Deliver(from, to string, payload []byte, now time.Time) (resp []byte, injected time.Duration, err error)
}

// Attestor is the optional second method of a Conduit that can also carry
// the attested key exchange: it delivers the marshalled handshake offer of
// from to the relay to, which verifies it, installs its half of the session
// and answers with its own marshalled offer. core uses it only for a relay
// that is not a member of its own in-process network (a member is attested
// without leaving the process); a conduit that reaches no such relay — the
// simnet fault layer, test doubles — simply does not implement it.
type Attestor interface {
	Attest(from, to string, offer []byte) (reply []byte, err error)
}
