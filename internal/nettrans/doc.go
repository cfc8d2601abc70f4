// Package nettrans is the real-socket data plane of the reproduction: a
// production-grade TCP transport that slots under the protocol through the
// transport.Conduit seam, so core.Network, the workload engine and the
// chaos/invariant machinery all run unchanged over real connections.
//
// # Frame protocol (version 1)
//
// Every message on a connection is one frame: a fixed 16-byte header
// followed by a length-prefixed payload.
//
//	header := magic(2B 0xC7 0x5A) ver(1B) type(1B) streamID(8B) length(4B)
//
// streamID multiplexes many in-flight exchanges over one connection: each
// request frame carries a fresh stream identifier and the matching response
// frame echoes it, so a client never has to serialize round trips on the
// socket. length is the payload size; frames longer than the limit
// (DefaultMaxFrame, covering the 1 MiB encrypted-record bound plus envelope
// slack) are rejected before any allocation based on them, as are frames
// with a bad magic, an unknown version or an unknown or retired type. Frame
// payloads use the internal/wire primitives (uvarint length-prefixed
// fields, big-endian fixed fields), the same codec vocabulary as the
// enclave gate frames.
//
// Frame types:
//
//	hello  := proto(1B) id(str)              — connection preamble, both ways
//	data   := nowNano(8B) from(str) to(str) record(bytes)   — conduit request
//	resp   := injectedNano(8B) record(bytes)                — conduit response
//	err    := code(1B) msg(str)                             — failed exchange
//	attest := from(str) to(str) offer(bytes) out, offer back — pair key exchange
//	goaway := (empty)                        — server draining, stop opening streams
//	gossip := view buffer (rps wire format)  — membership exchange, both directions
//	view   := (empty) out, JSON ViewSnapshot back           — introspection
//	accounting := ledger state (PN-counter wire format)     — ledger exchange, both directions
//
// The type byte numbers them 1–5 in the order above, then 8, 9, 10 and 13
// (accounting). Numbers 6, 7, 11 and 12 are retired and reserved: they
// carried a single-hop relay service's query/answer records and query-batch
// pair, are never reused, and are refused like an unknown type. An attest
// offer is a marshalled securechan.HandshakeMsg, bounded at 64 KiB both
// ways: it is parsed before its sender is verified.
//
// A gossip frame's payload is an rps view buffer
// (`ver | count | {id | addr | age}*`, see internal/rps/wire.go): the
// initiator sends its exchange buffer, the passive side replies with its
// own on the same stream. gossip, view and accounting were added after
// version 1 shipped as backward-additive extensions — the header layout is
// unchanged and a peer that predates them rejects the unknown type (and the
// connection) rather than misparsing the stream.
//
// # The write path
//
// Every connection's writes run through a coalescing group-commit
// scheduler: writers append encoded frames to a pending batch under the
// connection write lock, the first writer into an idle queue becomes the
// flush leader, and the leader puts the whole batch on the socket in one
// write. Before detaching a batch the leader briefly yields the processor
// so writers that are already runnable can join it — without that
// cooperative linger, coalescing never engages on transports whose writes
// do not block (loopback TCP). A lone writer still flushes immediately; the
// write deadline is disarmed when the queue goes idle.
//
// The contract: writeFrame returns when the frame is queued; a failed flush
// closes the connection. Only the leader stays for the flush — a writer
// that found one in progress appends its frame and returns, because what it
// does next (a round trip parks on its stream's channel, a server worker
// goes back to its pool) does not depend on the bytes having left. Such a
// writer cannot be handed an error later, so the leader of a failed flush
// poisons the connection for every later writer and closes the socket, and
// the read side does the rest: the pool's read loop fails every pending
// stream with ErrConnClosed at once, a server connection unregisters and
// drops the sessions attested on it.
//
// A writer with several frames for one connection appends them all under one
// acquisition of the write lock and commits them together (appendFrame,
// commitFrames): that is how TCPConduit.Submit puts every record of a search
// that is bound for one connection into one flush — 8 frames in 2 flushes
// for a warm k = 7 search over two hosts, where one writeFrame per path used
// to cost about 4.6.
//
// The pending batch is bounded at 256 KiB: writers beyond it block until
// the leader detaches the batch (not until that batch is flushed — the next
// one fills while the previous is on the wire). WriteStats exposes
// flushes/frames/bytes — the benchmark's traced run reports them as
// nettrans.frames_per_flush (the contention proxy) and
// nettrans.flushes_per_op.
//
// # Components
//
// Server owns the listen socket: per-connection read loops with idle
// deadlines and frame limits, bounded in-flight dispatch (a semaphore; a
// flooding client blocks on its own connection rather than exhausting the
// process) and graceful drain on Close (stop accepting, send goaway, let
// in-flight exchanges finish, then close).
//
// Pool owns the client side: one entry per peer address, dial-on-demand,
// reconnection with exponential backoff (a peer in backoff fails fast
// instead of re-dialing on every request), idle reaping, the timeout sweep
// of submitted records, and bounded pending-stream backpressure per
// connection.
//
// TCPConduit implements transport.Conduit over a Pool: Deliver writes the
// encrypted record as a data frame (copied into the write batch during the
// call, never retained) and copies the response record into a per-pair
// buffer, so the returned slice stays valid until the next delivery between
// the same pair — exactly the ownership contract documented on
// transport.Conduit. Those buffers hang off the pooled connection that
// answered and go when it is reaped or torn down; the conduit itself keeps
// nothing per pair.
// Because the conduit seam composes, internal/simnet can wrap a TCPConduit
// (core.NetworkOptions.Conduit: first the TCP layer, then sim.Wrap) and run
// the whole chaos catalog plus invariant checkers over real sockets; see
// simnet.ChaosOptions.Transport.
//
// # Submit: the asynchronous seam
//
// TCPConduit also implements transport.Submitter, natively on the stream
// table: a pending stream's entry is whoever gets its result — the channel
// of a blocked RoundTrip, or a submitted record (asyncCall). Submit resolves
// the batch's relays, and for each destination connection takes one
// pending-stream slot and registers one stream per record, then appends all
// their data frames in one write-lock acquisition and one commit. The
// connection's read loop turns each resp or err frame into the record's
// transport.Completion itself — the same error mapping Deliver applies — and
// posts it on the submitter's channel; the response record is handed over in
// the pooled frame it was read into, which Release gives back, so nothing is
// copied between the socket and the AEAD open.
//
// Exactly one completion per record, whoever learns its fate first; the
// stream table decides, because only the goroutine that removes a stream
// from it may complete it: the read loop (answered, refused), a teardown
// (every pending stream of a cut or failed connection fails with
// ErrConnClosed at once — a failed flush of the batch ends here too), Submit
// itself for what never reaches the wire (no address, peer in backoff or
// undialable, ErrPipeFull when the connection already carries MaxPending
// unanswered streams — Submit never waits for a slot — and a record beyond
// the frame limit), and the timeout sweep. The sweep is the submitted
// record's clock: it has no timer and no goroutine of its own, so the pool's
// janitor, ticking at a quarter of RequestTimeout (or half the idle timeout
// if that is shorter), fails every submitted record older than
// RequestTimeout with ErrRequestTimeout — between one and one and a quarter
// RequestTimeout after Submit — on every connection with a running read
// loop, a draining predecessor included. Each such timeout counts against
// the pipe like a RoundTrip's, and the third in a row retires it.
//
// # Attested sessions
//
// The protocol's sessions live in internal/core: a client's half in its
// pair state, a relay's half in its enclave. Two members of one in-process
// core.Network exchange keys without touching this package
// (securechan.EstablishPair; set-up time and simnet's seeded fault streams
// depend on that). Between processes the exchange crosses the wire once per
// pair, as an attest frame: TCPConduit is a transport.Attestor, and a Server
// whose Handler is one too (a hosted core.Node's local conduit) routes the
// frame to it. The session the Handler installs belongs to the connection
// the frame arrived on: only that connection may re-attest the pair (in the
// name it said hello under; anyone else gets the busy code and skips the
// relay) and its teardown drops the session, so a dropped connection leaks
// no nonce state into a reconnect — a data frame on the new one gets the
// no-session code and the client re-attests. ServerConfig.Admission charges
// a data frame to the hello identity, and admits or sheds it only on the
// connection that owns its pair; binding that identity to the attested key
// is future work.
//
// # Membership: the gossip control plane
//
// Membership turns a daemon into a self-organizing overlay node: an
// internal/rps peer-sampling node whose exchange buffers travel as gossip
// frames over the connection pool, plus an attestation directory that
// re-attests every peer entering the view (AttestFunc; verification
// failures — ErrAttestRejected — blacklist the peer, transport failures
// merely evict it with re-entry allowed) and resolves node IDs to verified
// addresses for the data plane (Membership.Resolve plugs straight into
// ConduitConfig.Resolve, Membership.Node into core.NewHostedNode). Bootstrap joins through seed addresses only and
// fails with ErrNoSeed when none answers; a view emptied by failures
// re-bootstraps from the same seeds. Blacklisted peers are
// gossip-suppressed end to end: never re-admitted on merge, never
// forwarded in buffers, and their inbound exchanges are refused. FetchView
// is the matching introspection client (`cyclosa-node -mode view`).
package nettrans
