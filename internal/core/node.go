package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/backend"
	"cyclosa/internal/enclave"
	"cyclosa/internal/rps"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/securechan"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/transport"
)

// EnclaveName and EnclaveVersion define the measured code identity of the
// CYCLOSA enclave; all nodes run the same implementation, which is what the
// known-good measurement list attests (§V-D).
const (
	EnclaveName    = "cyclosa-relay"
	EnclaveVersion = 1
)

// Backend is the search engine a relay forwards queries to.
type Backend interface {
	Search(source, query string, now time.Time) ([]searchengine.Result, error)
}

// NullBackend answers every query instantly with no results: a relay
// measured or soaked without an engine behind it.
type NullBackend struct{}

var _ Backend = NullBackend{}

// Search returns an empty result page.
func (NullBackend) Search(string, string, time.Time) ([]searchengine.Result, error) {
	return nil, nil
}

// Node errors.
var (
	ErrNoPeers          = errors.New("core: no peers available")
	ErrRelayUnavailable = errors.New("core: relay unavailable")
	ErrRelayFailed      = errors.New("core: real query relay failed")
	// ErrRelayMisbehaved marks a forward whose failure was detected rather
	// than timed out: a tampered or replayed record, an undecodable or
	// mismatched response — anything a Byzantine relay (or an attacker on
	// the link) could have caused. The retry layer blacklists the relay like
	// an unresponsive one, but without charging the timeout: the rejection
	// is immediate.
	ErrRelayMisbehaved = errors.New("core: relay misbehaved")
	// ErrSelfRelay rejects a node relaying its own query, which would show
	// the requester's identity to the engine.
	ErrSelfRelay = errors.New("core: node cannot relay its own query")
	// ErrRelayThrottled marks a forward an honest relay's per-client
	// admission shed before opening it. Both ends consumed the record's
	// sequence number, so the pair stays attested; the relay is not
	// blacklisted and pays no timeout — the query goes to a different relay,
	// as after an engine failure.
	ErrRelayThrottled = errors.New("core: relay throttled the forward")
	// ErrNoSession is a relay's answer to a record from a client it holds no
	// session for: the connection the session was attested on is gone, or
	// the relay restarted. The client discards its half and re-attests.
	ErrNoSession = errors.New("core: relay holds no session")
	// ErrRelayUnresolved marks a sampled relay the transport has no attested
	// address for (yet) — its attestation is in flight, or it left the
	// directory — or that still holds this identity's session on another
	// connection (one just dropped, or a squatter's). It is unavailability
	// (errors.Is ErrRelayUnavailable holds) that says nothing against the
	// relay, so the retry layer skips it like a self-sample instead of
	// blacklisting it.
	ErrRelayUnresolved = errors.New("core: relay not resolvable")
)

// NodeStats counts a node's activity.
type NodeStats struct {
	// Searches is the number of local user queries processed.
	Searches uint64
	// FakesSent is the number of fake queries issued.
	FakesSent uint64
	// Relayed is the number of queries relayed for other nodes.
	Relayed uint64
	// EngineErrors counts engine refusals observed while relaying.
	EngineErrors uint64
	// Blacklisted counts peers this node blacklisted.
	Blacklisted uint64
	// Misbehaved counts forwards rejected for tampering, replay or garbage
	// responses (each one also blacklists the relay involved).
	Misbehaved uint64
	// EngineFailed counts forwards answered by a live relay whose engine
	// failed (error, timeout, shed or open breaker). The relay behaved —
	// the retry layer re-samples a different relay without blacklisting or
	// misbehavior-charging the honest one.
	EngineFailed uint64
}

// nodeCounters is the lock-free internal form of NodeStats: every counter is
// bumped on the forward hot path, so they are atomics rather than fields
// behind the node mutex. The relayed counter — the only one bumped once per
// forward under heavy relay traffic — is a thresholded net-commit
// accumulator instead of a single shared atomic: each responder-side
// session owns a handle that commits in batches, so N relays hammering one
// node produce O(commits) shared-cacheline traffic rather than O(forwards).
// Sum stays exact, which the simnet conservation checks rely on.
type nodeCounters struct {
	searches     atomic.Uint64
	fakesSent    atomic.Uint64
	relayed      *accounting.Counter
	engineErrors atomic.Uint64
	blacklisted  atomic.Uint64
	misbehaved   atomic.Uint64
	engineFailed atomic.Uint64
}

func (c *nodeCounters) snapshot() NodeStats {
	return NodeStats{
		Searches:     c.searches.Load(),
		FakesSent:    c.fakesSent.Load(),
		Relayed:      uint64(c.relayed.Sum()),
		EngineErrors: c.engineErrors.Load(),
		Blacklisted:  c.blacklisted.Load(),
		Misbehaved:   c.misbehaved.Load(),
		EngineFailed: c.engineFailed.Load(),
	}
}

// SearchResult is the outcome of one protected search.
type SearchResult struct {
	// Results is the result page of the real query.
	Results []searchengine.Result
	// Assessment is the sensitivity assessment that drove the protection.
	Assessment sensitivity.Assessment
	// K is the number of fake queries actually sent (may be lower than the
	// assessment's k when few peers are known).
	K int
	// RealRelay is the peer that forwarded the real query.
	RealRelay string
	// Latency is the simulated end-to-end latency of the real query,
	// including the client-side cost of dispatching the fakes.
	Latency time.Duration
	// EngineError is non-nil when the relay reached the engine but the
	// engine refused the query.
	EngineError error
}

// relaySession is the responder-side state for one attested peer: the
// session itself plus a response-ciphertext scratch buffer. The buffer is
// reused across forwards — the record returned by the "forward" ecall is
// valid only until the next forward from the same peer, which is safe
// because the client serializes its exchanges per pair (it must: the
// channel's record sequence numbers leave no other order).
type relaySession struct {
	sess *securechan.Session

	// relayed is this session's lane into the node's relayed counter:
	// forwards accumulate here and net-commit in batches (see nodeCounters).
	relayed *accounting.Handle

	// mu guards out across pathological concurrent forwards from the same
	// peer (normal operation serializes them; a malicious host does not).
	mu  sync.Mutex
	out []byte
}

// enclaveState is the data owned by the enclave: responder-side sessions and
// the past-query table. Host code interacts with it only through ecalls.
// Session lookup happens on every relayed request while admission only on
// first contact, so the map is behind an RWMutex.
type enclaveState struct {
	mu       sync.RWMutex
	sessions map[string]*relaySession
	table    *PastQueryTable
}

// Node is one CYCLOSA participant: browser-extension client plus
// enclave-hosted relay.
type Node struct {
	id         string
	encl       *enclave.Enclave
	handshaker *securechan.Handshaker
	analyzer   *sensitivity.Analyzer
	peers      *rps.Node
	state      *enclaveState // reachable only via ecalls in relay flow
	backend    Backend
	// budgeted is backend when it threads deadlines (a resilience stack);
	// nil for bare backends. Cached at build time so the forward hot path
	// pays no per-call type assertion.
	budgeted budgetedBackend
	net      *Network

	// mu guards rng (the only remaining mutable non-atomic client state;
	// counters are atomics so relays never contend on a client's mutex).
	// Client-side session state lives in the network's sharded pair map.
	mu           sync.Mutex
	rng          *rand.Rand
	stats        nodeCounters
	relayTimeout time.Duration
}

// NodeOptions configures a node.
type NodeOptions struct {
	// ID is the node identity (also its network source address).
	ID string
	// Analyzer is the sensitivity analyzer; nil disables protection
	// (k = 0 always), useful for baselines.
	Analyzer *sensitivity.Analyzer
	// TableSize bounds the past-query table.
	TableSize int
	// Seed drives the node's randomness.
	Seed int64
	// RelayTimeout is the unresponsive-relay blacklisting deadline (§VI-b);
	// it is charged to latency when a relay fails (default 1s).
	RelayTimeout time.Duration
}

// budgetedBackend is the optional deadline-threading surface of a backend
// (backend.Stack implements it): the relay passes its remaining forward
// timeout down so the engine stack never outlives the requester's patience
// and an engine hang cannot masquerade as a dead relay.
type budgetedBackend interface {
	SearchBudget(source, query string, now time.Time, budget time.Duration) ([]searchengine.Result, error)
}

func newNode(opts NodeOptions, platform *enclave.Platform, verifier *enclave.Verifier, peers *rps.Node, be Backend, net *Network) (*Node, error) {
	if opts.RelayTimeout == 0 {
		opts.RelayTimeout = time.Second
	}
	encl := platform.New(enclave.Config{Name: EnclaveName, Version: EnclaveVersion})
	hs, err := securechan.NewHandshaker(encl, verifier)
	if err != nil {
		return nil, fmt.Errorf("node %s: %w", opts.ID, err)
	}
	n := &Node{
		id:         opts.ID,
		encl:       encl,
		handshaker: hs,
		analyzer:   opts.Analyzer,
		peers:      peers,
		state: &enclaveState{
			sessions: make(map[string]*relaySession),
			table:    NewPastQueryTable(opts.TableSize, encl.EPC()),
		},
		backend:      be,
		net:          net,
		rng:          rand.New(rand.NewSource(opts.Seed)),
		relayTimeout: opts.RelayTimeout,
	}
	n.stats.relayed = accounting.NewCounter()
	if bb, ok := be.(budgetedBackend); ok {
		n.budgeted = bb
	}
	n.registerECalls()
	n.registerSealECalls()
	return n, nil
}

// registerECalls installs the trusted relay functions behind the call gate.
// Gate frames use the binary wire codec (see messages.go); the forward path
// crosses the boundary without JSON and reuses pooled scratch buffers.
func (n *Node) registerECalls() {
	// "forward": decrypt a peer's request, record the query, submit it to
	// the engine (via the engine ocall) and return the encrypted response.
	n.encl.RegisterECall("forward", func(args []byte) ([]byte, error) {
		from, payload, nowNano, err := decodeForwardArgs(args)
		if err != nil {
			return nil, fmt.Errorf("forward args: %w", err)
		}
		n.state.mu.RLock()
		rs := n.state.sessions[string(from)]
		n.state.mu.RUnlock()
		if rs == nil {
			return nil, fmt.Errorf("forward: %w with %s", ErrNoSession, from)
		}

		pb := getBuf()
		padded, err := rs.sess.DecryptAppend((*pb)[:0], payload)
		if err != nil {
			putBuf(pb)
			return nil, fmt.Errorf("forward decrypt: %w", err)
		}
		*pb = padded
		plain, err := unpadPlaintext(padded)
		if err != nil {
			putBuf(pb)
			return nil, fmt.Errorf("forward unpad: %w", err)
		}
		requestID, query, err := decodeRequestWire(plain)
		if err != nil {
			putBuf(pb)
			return nil, fmt.Errorf("decode forward request: %w", err)
		}

		// Record the query in the enclave-resident table (step 4 of Fig 4):
		// it becomes fake-query source material. Add copies its bytes out of
		// the pooled buffer into the table's arena.
		n.state.table.Add(query)

		// Submit to the engine through the untrusted host (ocall), as the
		// enclave's TLS bytes would leave through the host NIC.
		eb := getBuf()
		engineArgs := appendEngineArgs((*eb)[:0], n.id, query, nowNano)
		*eb = engineArgs
		putBuf(pb) // query copied into the gate frame and the table
		resultsBlob, engineErr := n.encl.OCall("engine", engineArgs)
		if cap(resultsBlob) > cap(*eb) {
			// The page outgrew the frame's buffer and the ocall allocated:
			// keep the larger array, so the next page fits.
			*eb = resultsBlob[:0]
		}

		// Assemble the response: header plus the engine's result page,
		// spliced verbatim (the client validates it on decode).
		rb := getBuf()
		var resp []byte
		if engineErr != nil {
			// Truncate to the wire bound: an arbitrarily long backend error
			// must not make the response undecodable at the client.
			msg := engineErr.Error()
			if len(msg) > maxWireErrLen {
				msg = msg[:maxWireErrLen]
			}
			resp = appendResponseHeader((*rb)[:0], requestID, msg)
			resp = searchengine.AppendResults(resp, nil)
		} else {
			resp = appendResponseHeader((*rb)[:0], requestID, "")
			resp = append(resp, resultsBlob...)
		}
		*rb = resp
		putBuf(eb) // resultsBlob, which lives in it, is spliced

		rs.mu.Lock()
		out, err := rs.sess.EncryptAppend(rs.out[:0], resp)
		if err == nil {
			rs.out = out
		}
		rs.mu.Unlock()
		putBuf(rb)
		return out, err
	})

	// "engine": the untrusted host callback that carries the query to the
	// search engine. Returns a binary result page (spliced into the
	// response by the ecall above). The gate frame doubles as the out-buffer,
	// as an SGX ocall's [out] parameter would: the page is encoded behind the
	// frame, in the spare capacity of the caller's pooled buffer, so a relay
	// at steady state encodes it without allocating.
	n.encl.RegisterOCall("engine", func(args []byte) ([]byte, error) {
		source, query, nowNano, err := decodeEngineArgs(args)
		if err != nil {
			return nil, fmt.Errorf("engine call args: %w", err)
		}
		// The frame's source always names this node (the relay is the
		// engine-visible identity); reuse the interned id string unless a
		// hand-crafted frame says otherwise.
		src := n.id
		if string(source) != n.id {
			src = string(source)
		}
		// Thread the relay's forward deadline as the engine budget: the
		// requester charges a timeout (and eventually blacklists) after
		// relayTimeout, so the engine stack must give up first and answer
		// with a typed engine error instead of silence.
		var results []searchengine.Result
		q := engineQuery(query)
		engStart := time.Now()
		if n.budgeted != nil {
			results, err = n.budgeted.SearchBudget(src, q, time.Unix(0, nowNano), n.relayTimeout)
		} else {
			results, err = n.backend.Search(src, q, time.Unix(0, nowNano))
		}
		stageEngine.Observe(time.Since(engStart))
		if err != nil {
			n.stats.engineErrors.Add(1)
			return nil, err
		}
		// AppendResults clamps the page to the wire bounds as it encodes, so
		// an arbitrary backend cannot produce a page the requesting client's
		// decoder rejects.
		return searchengine.AppendResults(args[len(args):], results), nil
	})
}

// ID returns the node identity.
func (n *Node) ID() string { return n.id }

// Enclave exposes the node's enclave (for stats and ablations).
func (n *Node) Enclave() *enclave.Enclave { return n.encl }

// TableLen returns the enclave past-query table's length; the content itself
// is enclave state and not exposed.
func (n *Node) TableLen() int { return n.state.table.Len() }

// Stats returns a snapshot of the node's counters.
func (n *Node) Stats() NodeStats {
	return n.stats.snapshot()
}

// BackendStats snapshots the node's backend decorator counters when its
// backend is a resilience stack (or anything else exposing backend.Stats);
// ok is false for bare backends (NullBackend, a raw engine).
func (n *Node) BackendStats() (stats backend.Stats, ok bool) {
	if p, isStack := n.backend.(interface{ Stats() backend.Stats }); isStack {
		return p.Stats(), true
	}
	return backend.Stats{}, false
}

// BootstrapTable fills the past-query table (Google-Trends bootstrap, §V-D).
func (n *Node) BootstrapTable(queries []string) {
	n.state.table.AddAll(queries)
}

// Local returns the conduit that ends at this node: what the process's
// server hands inbound data and attest frames to (it is also a
// transport.Attestor).
func (n *Node) Local() transport.Conduit { return directConduit{n.net} }

// AttestRelay runs a fresh attested key exchange with a relay in another
// process through via and returns the relay enclave's measurement. The
// membership directory calls it for every peer entering the view — via then
// reaches the address the peer gossiped, which the node's own link will not
// resolve until this succeeds — and the session it leaves behind is the one
// the node's forwards to that relay use.
func (n *Node) AttestRelay(relayID string, via transport.Attestor) (enclave.Measurement, error) {
	ps := n.net.pairEntry(n.id, relayID)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	n.net.breakPair(ps, n, nil)
	if err := attestRemoteLocked(ps, n, relayID, via); err != nil {
		return enclave.Measurement{}, err
	}
	return ps.client.PeerMeasurement(), nil
}

// admitSession installs a responder-side session (called by the network
// after mutual attestation), closing any leftover it replaces.
func (n *Node) admitSession(peer string, sess *securechan.Session) {
	n.state.mu.Lock()
	defer n.state.mu.Unlock()
	if old := n.state.sessions[peer]; old != nil {
		old.sess.Close()
		old.relayed.Close()
	}
	n.state.sessions[peer] = &relaySession{
		sess:    sess,
		relayed: n.stats.relayed.Handle(0),
	}
}

// dropSession discards and closes the responder-side session with peer
// (called by the network when a pair breaks); the next contact from peer
// re-attests.
func (n *Node) dropSession(peer string) {
	n.state.mu.Lock()
	defer n.state.mu.Unlock()
	if old := n.state.sessions[peer]; old != nil {
		old.sess.Close()
		old.relayed.Close()
	}
	delete(n.state.sessions, peer)
}

// handleForward is the host-side entry point of the relay: it passes the
// encrypted request through the call gate. The returned record points into
// relay-owned scratch and is valid only until the next forward from the
// same peer; callers must decrypt or copy it before issuing another.
func (n *Node) handleForward(from string, payload []byte, now time.Time) ([]byte, error) {
	n.state.mu.RLock()
	rs := n.state.sessions[from]
	n.state.mu.RUnlock()
	if rs != nil {
		// Count through the session's own accumulation lane: the shared
		// counter is touched only every commit-threshold forwards.
		rs.relayed.Add(1)
	} else {
		// No admitted session (the pair broke under our feet); the forward
		// will fail inside the ecall, but it still happened — commit direct.
		n.stats.relayed.Add(1)
	}
	ab := getBuf()
	args := appendForwardArgs((*ab)[:0], from, payload, now.UnixNano())
	*ab = args
	out, err := n.encl.Call("forward", args)
	putBuf(ab)
	return out, err
}

// Search runs the full CYCLOSA protection flow for a local user query
// (Fig 4): sensitivity assessment, adaptive k, fake-query selection, per-path
// forwarding, response filtering.
func (n *Node) Search(query string, now time.Time) (*SearchResult, error) {
	assessment := sensitivity.Assessment{Query: query}
	if n.analyzer != nil {
		assessment = n.analyzer.Assess(query)
	}
	k := assessment.K

	// The k+1 records are sealed here, one after the other, submitted as one
	// batch and opened here as their answers arrive (§VI). The scratch holds
	// what that needs besides the result, the relays and the queries
	// included.
	sc := getSearchScratch(k + 1)
	defer putSearchScratch(sc)

	// Pick k+1 distinct relays; shrink k when the view is too small.
	relays := n.peers.AppendSample(sc.relays[:0], k+1)
	sc.relays = relays
	if len(relays) == 0 {
		return nil, ErrNoPeers
	}
	// The query is about to leave: only now does it join the history the
	// linkability assessment compares later queries with.
	if n.analyzer != nil {
		n.analyzer.RecordQuery(assessment)
	}
	if len(relays) < k+1 {
		k = len(relays) - 1
	}

	// One fake query per fake relay, drawn from the enclave table into the
	// scratch; the table can run dry right after bootstrap. The real query
	// joins them there: every path's query is bytes in sc.queries.
	n.mu.Lock()
	sc.queries, sc.spans = n.state.table.appendSample(sc.queries[:0], sc.spans[:0], n.rng, k)
	realIdx := n.rng.Intn(k + 1)
	n.mu.Unlock()
	if fakes := len(sc.spans); fakes < k {
		k = fakes
		if realIdx > k {
			realIdx = k
		}
		relays = relays[:k+1]
	}
	realSpan := span{uint32(len(sc.queries)), uint32(len(query))}
	sc.queries = append(sc.queries, query...)
	sc.paths(k + 1)

	res := &SearchResult{Assessment: assessment, K: k}

	// Client-side dispatch cost: serializing and encrypting each of the k+1
	// requests is sequential work in the extension (this is why latency
	// grows with k, Fig 8b); the network round trips then proceed in
	// parallel, and only the real query's path delays the user.
	res.Latency = time.Duration(k+1) * n.net.clientSendCost

	// From its seal to its open a path holds its pair lock, so a search
	// holds up to k+1 of them: they are taken in relay-id order, which is
	// what keeps two searches of this node that share relays from waiting on
	// each other in a cycle. Path i still goes to relays[i].
	for i := range sc.order {
		j := i
		for ; j > 0 && relays[sc.order[j-1]] > relays[i]; j-- {
			sc.order[j] = sc.order[j-1]
		}
		sc.order[j] = i
	}
	pathQuery := func(i int) []byte {
		s := realSpan
		switch {
		case i > realIdx:
			s = sc.spans[i-1]
		case i < realIdx:
			s = sc.spans[i]
		}
		return sc.queries[s.off : s.off+s.n : s.off+s.n]
	}

	// A path leaves this goroutine for a path worker only when it is slow
	// anyway: its pair has no session (first contact, or a break) and needs
	// the handshake, or its forward failed and forwardWithRetry takes over
	// with the attempts it has left. What the search is owed: answers on
	// sc.done, outcomes on sc.outcomes.
	answers, outcomes := 0, 0
	offload := func(i int, first *forwardOutcome) {
		n.net.paths.Go(pathJob{node: n, relay: string(relays[i]), query: pathQuery(i), now: now,
			exclude: relays, real: i == realIdx, first: first, out: sc.outcomes})
		outcomes++
	}
	clock := time.Now()
	for _, i := range sc.order {
		c := &sc.calls[i]
		record, err := n.net.sealForward(n, string(relays[i]), pathQuery(i), i != realIdx, false, clock, c)
		switch {
		case err == nil:
			sc.batch = append(sc.batch, transport.Submission{To: c.relayID, Payload: record, Tag: i})
			clock = c.sealed
			continue
		case err != errUnattested:
			n.net.recordRefused(c, err)
			clock = c.end
			offload(i, &forwardOutcome{lat: c.latency, err: err})
		default:
			offload(i, nil)
		}
	}
	if len(sc.batch) > 0 {
		n.net.submit.Submit(n.id, now, sc.batch, sc.done)
		answers = len(sc.batch)
	}

	// An answer that was already waiting when the previous one had been
	// opened arrived, as far as this goroutine can tell, at that moment: the
	// clock is read again only after the loop may have slept.
	var realErr error
	var opened time.Time
	for answers+outcomes > 0 {
		if len(sc.done) == 0 {
			opened = time.Time{}
		}
		var o pathOutcome
		var answer transport.Completion
		answered := true
		if outcomes == 0 {
			answer = <-sc.done
		} else {
			select {
			case answer = <-sc.done:
			case o = <-sc.outcomes:
				answered = false
			}
		}
		if answered {
			answers--
			i := answer.Tag
			if opened.IsZero() {
				opened = time.Now()
			}
			reply, lat, err := n.net.openForward(n, &sc.calls[i], answer, opened)
			opened = sc.calls[i].end
			if err != nil || reply.EngineError != "" {
				offload(i, &forwardOutcome{reply: reply, lat: lat, err: err})
				continue
			}
			o = pathOutcome{real: i == realIdx, reply: reply, usedRelay: string(relays[i]), pathLatency: lat}
		} else {
			outcomes--
			opened = time.Time{}
		}
		if !o.real {
			if o.err == nil {
				n.stats.fakesSent.Add(1)
			}
			continue // fake responses were checked on arrival and never decoded
		}
		// Real query: its path latency dominates the user-visible delay.
		res.Latency += o.pathLatency
		res.RealRelay = o.usedRelay
		switch {
		case o.err != nil:
			realErr = fmt.Errorf("%w: %w", ErrRelayFailed, o.err)
		case o.reply.EngineError != "":
			// Classify from the wire string so callers can errors.Is against
			// the backend taxonomy (overloaded / timeout / breaker-open).
			res.EngineError = backend.FromWire(o.reply.EngineError)
		default:
			res.Results = o.reply.Results
		}
	}
	if realErr != nil {
		return res, realErr
	}

	n.stats.searches.Add(1)
	return res, nil
}

// searchScratch is what one Search needs besides its result: the relays,
// the k+1 queries as bytes, a call slot per path, the locking order, the
// batch and the two channels its paths report on. Every path reports
// exactly once, so the channels are empty again when the search ends and
// the whole scratch is pooled.
type searchScratch struct {
	relays []rps.NodeID
	// queries holds the fakes the table sampled, then the real query;
	// spans locates the fakes in it.
	queries []byte
	spans   []span
	calls   []forwardCall
	order   []int
	batch   []transport.Submission
	// done receives the submit seam's completions, outcomes the paths that
	// ran on a worker; both have room for all k+1.
	done     chan transport.Completion
	outcomes chan pathOutcome
}

var searchScratchPool sync.Pool

// getSearchScratch returns a scratch with room for up to paths paths.
func getSearchScratch(paths int) *searchScratch {
	sc, _ := searchScratchPool.Get().(*searchScratch)
	if sc == nil || cap(sc.calls) < paths {
		sc = &searchScratch{
			relays:   make([]rps.NodeID, 0, paths),
			spans:    make([]span, 0, paths),
			calls:    make([]forwardCall, paths),
			order:    make([]int, paths),
			batch:    make([]transport.Submission, 0, paths),
			done:     make(chan transport.Completion, paths),
			outcomes: make(chan pathOutcome, paths),
		}
	}
	return sc
}

// paths sizes the call slots and the locking order to the search's paths.
func (sc *searchScratch) paths(paths int) {
	sc.calls, sc.order = sc.calls[:paths], sc.order[:paths]
}

func putSearchScratch(sc *searchScratch) {
	clear(sc.calls) // pair states and nodes are not the pool's to keep alive
	clear(sc.batch)
	sc.batch = sc.batch[:0]
	if cap(sc.queries) > maxPooledBuf {
		sc.queries = nil
	}
	searchScratchPool.Put(sc)
}

// pathJob is what a path worker runs, handed over by value. With batch set
// it is a claimer of a submitted batch (submitBatch). Otherwise it is one of
// a search's k+1 paths that left the search goroutine: run forwardWithRetry
// and report the outcome on out. The job carries everything it needs, so a
// lingering worker keeps no network alive.
type pathJob struct {
	node    *Node
	relay   string
	query   []byte // in the search's scratch, which outlives the job
	now     time.Time
	exclude []rps.NodeID
	real    bool
	first   *forwardOutcome
	out     chan<- pathOutcome

	batch *batchFrame
}

// forwardOutcome is the result of one forward attempt.
type forwardOutcome struct {
	reply forwardResponse
	lat   time.Duration
	err   error
}

// pathOutcome is what a path reports back to its Search.
type pathOutcome struct {
	real        bool
	reply       forwardResponse
	usedRelay   string
	pathLatency time.Duration
	err         error
}

// runPath is the path workers' job function. Only the real query's page is
// kept; a fake's response is validated and dropped without being
// materialised.
func runPath(j pathJob) {
	if j.batch != nil {
		j.batch.help()
		return
	}
	reply, usedRelay, pathLatency, err := j.node.forwardWithRetry(j.relay, j.query, j.now, j.exclude, !j.real, j.first)
	j.out <- pathOutcome{real: j.real, reply: reply, usedRelay: usedRelay, pathLatency: pathLatency, err: err}
}

// forwardWithRetry forwards one query to relay, retrying over replacement
// peers when relays fail. An unresponsive relay costs the relay timeout and
// is blacklisted (§VI-b); a misbehaving relay (tampered, replayed or
// garbage frames) is blacklisted without the timeout — the rejection is
// immediate; a self-sample is skipped without blacklisting the node itself
// and without consuming one of the retry attempts (no forward was issued).
// A relay that answers but reports an engine failure (shed, timed out,
// breaker-open or erroring backend) behaved honestly: it is neither
// blacklisted nor misbehavior-charged and pays no timeout — the query is
// simply retried through a different relay whose engine may be healthy. If
// every attempt ends in engine failure the last engine reply is returned
// (no transport error occurred; the caller surfaces EngineError).
// A relay that sheds the forward as over its per-client quota is treated the
// same way (nothing charged, different relay), except that it leaves no
// reply to fall back on. A relay in another process that lost its session
// half is re-attested and tried once more before it counts as misbehaving;
// one the transport cannot resolve yet is skipped like a self-sample.
// Retry bookkeeping (the tried set, replacement sampling) is built lazily
// on the first failure, so the common all-relays-healthy path does no extra
// work. discardPage is passed to every attempt's forward. first, when
// non-nil, is the outcome of the first attempt, which the caller (Search)
// has already made.
func (n *Node) forwardWithRetry(relay string, query []byte, now time.Time, exclude []rps.NodeID, discardPage bool, first *forwardOutcome) (forwardResponse, string, time.Duration, error) {
	var total time.Duration
	var tried map[string]struct{}
	current := relay
	var lastErr error
	var engineReply forwardResponse
	engineRelay := ""
	reattested := false
	for attempt := 0; attempt < 3; attempt++ {
		var reply forwardResponse
		var lat time.Duration
		var err error
		if first != nil {
			reply, lat, err = first.reply, first.lat, first.err
			first = nil
		} else {
			reply, lat, err = n.net.forward(n, current, query, now, discardPage)
		}
		total += lat
		if err == nil && reply.EngineError == "" {
			return reply, current, total, nil
		}
		lastErr = err
		switch {
		case err == nil:
			// Engine failure reported by an honest relay: keep the reply as
			// the fallback answer and move to a different relay, charging
			// this one nothing.
			n.stats.engineFailed.Add(1)
			engineReply, engineRelay = reply, current
			lastErr = nil
		case errors.Is(err, ErrRelayThrottled):
			// Over quota at an honest relay: charge nothing, move on.
		case errors.Is(err, ErrNoSession) && !reattested:
			// The forward discarded our half; the same relay gets one more
			// forward, which re-attests first.
			reattested = true
			attempt--
			continue
		case errors.Is(err, ErrRelayMisbehaved), errors.Is(err, ErrNoSession):
			n.stats.misbehaved.Add(1)
			n.peers.Blacklist(rps.NodeID(current))
			n.stats.blacklisted.Add(1)
			forwardBlacklists.Inc()
		case errors.Is(err, ErrSelfRelay), errors.Is(err, ErrRelayUnresolved):
			// Re-sample without blacklisting (the node is not its own enemy,
			// and an unattested peer has done nothing) and without consuming
			// an attempt: no forward was issued, so the search keeps its full
			// retry budget. Replacements below never sample the node itself,
			// and each skipped peer joins tried, so this ends.
			attempt--
		case errors.Is(err, ErrRelayUnavailable):
			// Unresponsive relay: pay the timeout, blacklist, pick another.
			total += n.relayTimeout
			n.peers.Blacklist(rps.NodeID(current))
			n.stats.blacklisted.Add(1)
			forwardBlacklists.Inc()
		default:
			return forwardResponse{}, current, total, err
		}
		if tried == nil {
			tried = make(map[string]struct{}, len(exclude)+2)
			for _, e := range exclude {
				tried[string(e)] = struct{}{}
			}
		}
		next := ""
		for _, cand := range n.peers.Sample(8) {
			if string(cand) == n.id {
				continue // never relay through self, whatever the view says
			}
			if _, used := tried[string(cand)]; !used {
				next = string(cand)
				break
			}
		}
		if next == "" {
			if engineRelay != "" {
				// No replacement relay, but a relay did answer: degrade to
				// its engine-failure reply instead of claiming no peers.
				return engineReply, engineRelay, total, nil
			}
			if errors.Is(lastErr, ErrRelayThrottled) {
				return forwardResponse{}, current, total, lastErr
			}
			return forwardResponse{}, current, total, ErrNoPeers
		}
		tried[next] = struct{}{}
		current = next
		forwardRetries.Inc()
	}
	if lastErr == nil && engineRelay != "" {
		// Every relay behaved; every engine failed. Surface the last engine
		// reply — this is backend degradation, not relay failure.
		return engineReply, engineRelay, total, nil
	}
	return forwardResponse{}, current, total, lastErr
}
