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
// the call (it aliases the forward's pooled scratch buffer); the returned
// response is valid only until the next delivery between the same pair and
// must be consumed before then, exactly like the relay-owned scratch it
// usually points into. OwnershipChecker wraps any implementation and audits
// this contract at runtime — use it in tests of new Conduit implementations.
type Conduit interface {
	Deliver(from, to string, payload []byte, now time.Time) (resp []byte, injected time.Duration, err error)
}

// Submission is one sealed record of a batch handed to Submitter.Submit.
type Submission struct {
	// To is the relay the record is sealed for.
	To string
	// Payload is the sealed record. It may be read until the record's
	// completion has been posted, and not after.
	Payload []byte
	// Tag comes back unchanged in the record's Completion.
	Tag int
}

// Completion is the outcome of one submitted record: what Deliver would have
// returned for it, plus the implementation's handle on the buffer Resp lives
// in.
type Completion struct {
	Tag      int
	Resp     []byte
	Injected time.Duration
	Err      error
	// Buf is opaque to the receiver, which hands the whole Completion back
	// through Release once it has consumed Resp.
	Buf *[]byte
}

// Submitter is the asynchronous form of the delivery seam: one client's
// batch of sealed records goes in, and exactly one Completion per record
// comes out on the channel the caller supplied — posted by whichever
// goroutine learns the outcome, never by a goroutine started for the record.
// Submit itself does not wait for an answer from a peer across a wire. An
// implementation that has no wire may serve the batch before it returns, on
// the submitting goroutine and on workers it takes from a pool (the
// in-process conduit does); every completion is then posted when Submit
// returns.
//
// Exactly once: every record of the batch is completed once and only once,
// whatever happens to it — answered, refused, cut by a connection teardown,
// never answered (the implementation's request timeout), or failed before
// it reached the wire. A caller may therefore reuse done for its next batch
// as soon as it has received len(batch) completions.
//
// The caller guarantees done has room for every completion still owed on
// it, so posting one never blocks the poster (a connection's read loop).
//
// Buffer ownership: a Completion's Resp is the receiver's until it calls
// Release with that Completion, which it must do exactly once, error or
// not; the implementation then reuses the buffer. Unlike Deliver's response
// it does not depend on the pair's next delivery.
type Submitter interface {
	Submit(from string, now time.Time, batch []Submission, done chan<- Completion)
	Release(c Completion)
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
