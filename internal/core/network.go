package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cyclosa/internal/enclave"
	"cyclosa/internal/queries"
	"cyclosa/internal/rps"
	"cyclosa/internal/securechan"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/telemetry"
	"cyclosa/internal/transport"
	"cyclosa/internal/workers"
)

// DefaultClientSendCost is the per-request client-side dispatch cost (the
// browser extension serializes, encrypts and writes each of the k+1
// requests through js-ctypes and the enclave gate). Calibrated against the
// paper's measurements: the latency growth from k=3 (0.876 s median,
// Fig 8a) to k=7 (1.226 s, Fig 8b) implies ≈84 ms per additional request on
// their testbed.
const DefaultClientSendCost = 84 * time.Millisecond

// pairShardCount is the number of independent locks the pair/session map is
// spread over. Forwards between different (client, relay) pairs only contend
// when their keys hash to the same shard, so the host-side session lookup
// stops being a global choke point (X-Search's measured bottleneck is exactly
// this host-side locking, not the enclave crypto).
const pairShardCount = 64

// NetworkOptions configures the in-process CYCLOSA deployment.
type NetworkOptions struct {
	// Nodes is the network size.
	Nodes int
	// Seed drives all node and overlay randomness.
	Seed int64
	// Backend is the search engine relays forward to.
	Backend Backend
	// BackendFor, when non-nil, builds each node's backend and overrides
	// Backend. Per-node backends are the deployment reality (every relay
	// fronts its own engine connection) and what lets robustness layers —
	// circuit breakers, fault injectors — track one engine per relay.
	BackendFor func(nodeID string) Backend
	// LatencyModel samples link latencies (DefaultModel(Seed) if nil).
	LatencyModel *transport.Model
	// AnalyzerFor builds the per-node sensitivity analyzer; nil gives nodes
	// without adaptive protection (k always 0).
	AnalyzerFor func(nodeID string) *sensitivity.Analyzer
	// TableSize bounds each node's past-query table.
	TableSize int
	// RPSConfig tunes peer sampling (sensible defaults if zero).
	RPSConfig rps.Config
	// BootstrapQueries pre-fills each node's fake-query table; typically a
	// trending-source batch (§V-D).
	BootstrapQueries []string
	// GossipRounds is the number of peer-sampling rounds run at start-up
	// (default 20, enough for overlay convergence).
	GossipRounds int
	// ClientSendCost overrides DefaultClientSendCost.
	ClientSendCost time.Duration
	// Conduit, when non-nil, wraps the network's direct delivery path: it
	// receives the in-process conduit and returns the conduit every forward
	// will use. internal/simnet plugs its fault-injection layer in here; a
	// nil Conduit keeps the direct path (and its allocation profile)
	// untouched.
	Conduit func(direct transport.Conduit) transport.Conduit
}

// Network is an in-process CYCLOSA deployment: nodes with simulated enclaves
// on genuine platforms, a shared IAS, a converged peer-sampling overlay and
// a latency model. Message exchange is synchronous; latencies are sampled
// and accounted rather than slept, so large deployments simulate quickly.
//
// The hot path (forward) is safe for concurrent use by many client
// goroutines and avoids global locks: the member set is a copy-on-write
// snapshot read lock-free on every forward (Join swaps in a new copy), the
// pair/session map is sharded across pairShardCount locks, the request
// counter is atomic, and liveness is a read-mostly RWMutex. Kill, Alive,
// Join and Gossip may be called while forwards are in flight.
type Network struct {
	// Immutable after NewNetwork returns.
	engine         Backend
	engineFor      func(nodeID string) Backend
	model          *transport.Model
	ias            *enclave.IAS
	verifier       *enclave.Verifier
	rpsNet         *rps.Network
	clientSendCost time.Duration
	pairSeed       maphash.Seed
	conduit        transport.Conduit
	// submit is the asynchronous form of conduit, the only shape Search
	// uses: the conduit itself when it implements the seam (TCPConduit, the
	// in-process directConduit), the path-worker adapter around its Deliver
	// otherwise.
	submit transport.Submitter
	// attestor is a hosted node's conduit (NewHostedNode), which carries the
	// attested key exchange to relays outside this process; nil in a
	// NewNetwork, where every reachable relay is a member, attested in
	// process, and a relay that left the member set is simply unavailable.
	attestor transport.Attestor

	// members is the copy-on-write node set: forwards read it lock-free,
	// Join (serialized by joinMu) swaps in a new copy. The zero-cost
	// read is what keeps the hot path unchanged from the immutable era.
	members atomic.Pointer[memberSet]
	joinMu  sync.Mutex
	nodeSeq int // nodes ever created; seeds joined-node randomness (joinMu)

	// Retained construction parameters so joined nodes are built like the
	// originals.
	seed             int64
	analyzerFor      func(nodeID string) *sensitivity.Analyzer
	tableSize        int
	bootstrapQueries []string

	// deadMu guards dead: written by Kill, read on every forward.
	deadMu sync.RWMutex
	dead   map[string]struct{}

	// pairShards holds the per-(client, relay) attested session states.
	pairShards [pairShardCount]pairShard

	requestCounter atomic.Uint64

	// paths runs, on lingering workers, what a Search does not do on its own
	// goroutine: a Deliver-only conduit's Deliver calls (deliverAdapter),
	// the in-process conduit's helpers (directConduit.Submit), and the paths
	// that need a handshake or a retry (Node.Search).
	paths *workers.Pool[pathJob]
	// claimWithin bounds how long a record of an in-process batch waits for
	// a claimer (submitBatch).
	claimWithin time.Duration
}

// memberSet is one immutable snapshot of the node set.
type memberSet struct {
	nodes map[string]*Node
	order []string
}

type pairKey struct{ client, relay string }

type pairShard struct {
	mu sync.RWMutex
	m  map[pairKey]*pairState
}

// pairState is the client half of one attested pair. It holds no buffer: a
// forward's scratch lives in its forwardCall from the seal to the open, so a
// node's memory does not grow with the number of relays it has used.
type pairState struct {
	mu     sync.Mutex
	client *securechan.Session
}

// NewNetwork builds and bootstraps the deployment: platforms register with
// the IAS, the overlay gossips to convergence, fake-query tables are
// bootstrapped.
func NewNetwork(opts NetworkOptions) (*Network, error) {
	if opts.Nodes <= 1 {
		return nil, fmt.Errorf("core: need at least 2 nodes, got %d", opts.Nodes)
	}
	if opts.Backend == nil {
		opts.Backend = NullBackend{}
	}
	if opts.LatencyModel == nil {
		opts.LatencyModel = transport.DefaultModel(opts.Seed)
	}
	if opts.GossipRounds == 0 {
		opts.GossipRounds = 20
	}
	if opts.ClientSendCost == 0 {
		opts.ClientSendCost = DefaultClientSendCost
	}

	ias := enclave.NewIAS()
	verifier := enclave.NewVerifier(ias, enclave.MeasureCode(EnclaveName, EnclaveVersion))
	rpsNet := rps.NewNetwork(opts.Nodes, opts.RPSConfig, opts.Seed)

	net := newNetwork(opts.Backend, opts.LatencyModel, verifier, opts.ClientSendCost)
	net.engineFor = opts.BackendFor
	net.ias = ias
	net.rpsNet = rpsNet
	net.seed = opts.Seed
	net.analyzerFor = opts.AnalyzerFor
	net.tableSize = opts.TableSize
	net.bootstrapQueries = opts.BootstrapQueries
	var link transport.Conduit = directConduit{net}
	if opts.Conduit != nil {
		link = opts.Conduit(link)
	}
	net.setConduit(link)

	members := &memberSet{nodes: make(map[string]*Node, opts.Nodes)}
	for i, id := range rpsNet.NodeIDs() {
		node, err := net.buildNode(string(id), int64(i))
		if err != nil {
			return nil, err
		}
		members.nodes[string(id)] = node
		members.order = append(members.order, string(id))
	}
	net.members.Store(members)
	net.nodeSeq = opts.Nodes

	rpsNet.Run(opts.GossipRounds)
	return net, nil
}

// newNetwork builds the part of a Network that does not depend on who its
// members are: session shards, liveness, the path workers.
func newNetwork(engine Backend, model *transport.Model, verifier *enclave.Verifier, clientSendCost time.Duration) *Network {
	net := &Network{
		dead:           make(map[string]struct{}),
		engine:         engine,
		model:          model,
		verifier:       verifier,
		clientSendCost: clientSendCost,
		pairSeed:       maphash.MakeSeed(),
		paths:          workers.New("path", runPath),
		claimWithin:    defaultClaimWithin,
	}
	for i := range net.pairShards {
		net.pairShards[i].m = make(map[pairKey]*pairState)
	}
	return net
}

// setConduit installs the delivery seam in both its forms.
func (net *Network) setConduit(link transport.Conduit) {
	net.conduit = link
	if native, ok := link.(transport.Submitter); ok {
		net.submit = native
	} else {
		net.submit = deliverAdapter{net}
	}
}

// deliverAdapter is the submit seam of a conduit that only has Deliver
// (simnet's fault layer, the WAN and latency wrappers, the ownership
// checker, a tracing wrapper): such a Deliver may block, so every record is
// served on a path worker of its own (submitBatch with no inline share),
// which posts the completion. The response stays where Deliver's contract
// leaves it — valid until the pair's next delivery, which the pair lock the
// submitting forward still holds keeps away — so Release has nothing to do.
type deliverAdapter struct{ net *Network }

var _ transport.Submitter = deliverAdapter{}

func (a deliverAdapter) Submit(from string, now time.Time, batch []transport.Submission, done chan<- transport.Completion) {
	a.net.submitBatch(a.net.conduit, false, len(batch), from, now, batch, done)
}

func (deliverAdapter) Release(transport.Completion) {}

// NewHostedNode builds the node one process hosts in a networked deployment:
// a daemon, or the client that is the paper's browser extension. It is the
// node NewNetwork builds — same enclave, table, Search — in a network of
// which it is the only member, so every relay peers samples lives in another
// process and is attested and reached through link (a nettrans.TCPConduit
// over the membership directory). Serve the node to its peers by handing
// Local to the process's server.
func NewHostedNode(opts NodeOptions, platform *enclave.Platform, verifier *enclave.Verifier, peers *rps.Node, be Backend, link transport.Conduit) (*Node, error) {
	net := newNetwork(be, transport.DefaultModel(opts.Seed), verifier, DefaultClientSendCost)
	net.setConduit(link)
	net.attestor, _ = link.(transport.Attestor)
	node, err := newNode(opts, platform, verifier, peers, be, net)
	if err != nil {
		return nil, err
	}
	net.members.Store(&memberSet{nodes: map[string]*Node{opts.ID: node}, order: []string{opts.ID}})
	return node, nil
}

// buildNode creates one protocol node (platform, enclave, handshaker,
// analyzer, table) wired to the overlay node of the same id.
func (net *Network) buildNode(id string, seq int64) (*Node, error) {
	platform, err := enclave.NewPlatform(fmt.Sprintf("sgx-%s", id), net.ias)
	if err != nil {
		return nil, fmt.Errorf("platform for %s: %w", id, err)
	}
	var analyzer *sensitivity.Analyzer
	if net.analyzerFor != nil {
		analyzer = net.analyzerFor(id)
	}
	engine := net.engine
	if net.engineFor != nil {
		engine = net.engineFor(id)
	}
	node, err := newNode(NodeOptions{
		ID:        id,
		Analyzer:  analyzer,
		TableSize: net.tableSize,
		Seed:      net.seed + seq*104729,
	}, platform, net.verifier, net.rpsNet.Node(rps.NodeID(id)), engine, net)
	if err != nil {
		return nil, err
	}
	if len(net.bootstrapQueries) > 0 {
		node.BootstrapTable(net.bootstrapQueries)
	}
	return node, nil
}

// Join admits a new node into a running deployment: a fresh platform
// registers with the IAS, the overlay node bootstraps its view from a
// random sample of current members (the public-repository bootstrap of
// §V-D) and converges through gossip, and relay selection starts sampling
// it as soon as its descriptor spreads. Safe to call while forwards are in
// flight.
func (net *Network) Join(id string) (*Node, error) {
	net.joinMu.Lock()
	defer net.joinMu.Unlock()
	cur := net.members.Load()
	if _, exists := cur.nodes[id]; exists {
		return nil, fmt.Errorf("core: node %s already a member", id)
	}
	net.rpsNet.Add(rps.NodeID(id), nil)
	node, err := net.buildNode(id, int64(net.nodeSeq))
	if err != nil {
		net.rpsNet.Remove(rps.NodeID(id))
		return nil, err
	}
	net.nodeSeq++

	next := &memberSet{
		nodes: make(map[string]*Node, len(cur.nodes)+1),
		order: make([]string, 0, len(cur.order)+1),
	}
	for k, v := range cur.nodes {
		next.nodes[k] = v
	}
	next.nodes[id] = node
	next.order = append(next.order, cur.order...)
	next.order = append(next.order, id)
	net.members.Store(next)

	net.deadMu.Lock()
	delete(net.dead, id) // a re-join sheds any stale dead mark
	net.deadMu.Unlock()
	return node, nil
}

// BootstrapFromTrending fills every node's table with n queries from a
// trending source over the universe.
func (net *Network) BootstrapFromTrending(uni *queries.Universe, n int, seed int64) {
	src := queries.NewTrendingSource(uni, seed)
	m := net.members.Load()
	for _, id := range m.order {
		m.nodes[id].BootstrapTable(src.Batch(n))
	}
}

// Node returns the node with the given ID, or nil. The member set is a
// copy-on-write snapshot, so the lookup is lock-free.
func (net *Network) Node(id string) *Node {
	return net.members.Load().nodes[id]
}

// NodeIDs returns all node IDs in stable order (join order for members
// admitted after construction).
func (net *Network) NodeIDs() []string {
	order := net.members.Load().order
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// Kill marks a node unreachable: forwards to it fail and the overlay heals
// around it. Safe to call while forwards are in flight.
func (net *Network) Kill(id string) {
	net.deadMu.Lock()
	net.dead[id] = struct{}{}
	net.deadMu.Unlock()
	net.rpsNet.Kill(rps.NodeID(id))
}

// Alive reports whether a node is reachable.
func (net *Network) Alive(id string) bool {
	net.deadMu.RLock()
	_, dead := net.dead[id]
	net.deadMu.RUnlock()
	return !dead
}

// Gossip runs additional peer-sampling rounds (e.g. to heal after failures).
func (net *Network) Gossip(rounds int) { net.rpsNet.Run(rounds) }

// directConduit is the default delivery path: hand the record straight to
// the relay's host entry point, in process. It is the innermost layer of
// any conduit stack installed via NetworkOptions.Conduit.
type directConduit struct{ net *Network }

var (
	_ transport.Conduit   = directConduit{}
	_ transport.Submitter = directConduit{}
)

// Submit serves a batch in process before it returns, on the calling
// goroutine and on up to min(len(batch), GOMAXPROCS)-1 path-worker helpers:
// a serve is CPU work unless the relay's backend waits, so a helper is worth
// a hand-off only while a core is free to run it, and with GOMAXPROCS 1 the
// caller serves the whole batch. A backend that does wait (a remote engine,
// a hang the watchdog has yet to cut) holds up the records behind it only
// until net.claimWithin after the call: each record still unclaimed then
// gets a worker of its own.
func (d directConduit) Submit(from string, now time.Time, batch []transport.Submission, done chan<- transport.Completion) {
	d.net.submitBatch(d, true, min(len(batch), runtime.GOMAXPROCS(0))-1, from, now, batch, done)
}

// Release does nothing: a completion's response stays where Deliver leaves
// it, in the relay's session buffer, which the pair lock the submitting
// forward holds keeps untouched until the forward is opened.
func (directConduit) Release(transport.Completion) {}

// defaultClaimWithin bounds how long a record of an in-process batch waits
// for a claimer: two orders of magnitude above a whole batch's serving time
// on an engine that answers from memory, well below a remote engine's
// round trip.
const defaultClaimWithin = 10 * time.Millisecond

// submitBatch serves batch through link: that many helpers, each a path
// worker, claim records from one shared index, serve each through Deliver
// and post its completion. With inline set the calling goroutine claims
// records too, a timer hands every record still unclaimed net.claimWithin
// later to a worker of its own, and the call returns once every record is
// served — so a helper that found nothing left has run, and parks again,
// before its search ends. Without it each helper serves one record
// (helpers is then len(batch)) and the call returns at once. done has room
// for every record (the Submitter contract), so no post blocks a claimer.
func (net *Network) submitBatch(link transport.Conduit, inline bool, helpers int, from string, now time.Time, batch []transport.Submission, done chan<- transport.Completion) {
	b, _ := batchFramePool.Get().(*batchFrame)
	if b == nil {
		b = &batchFrame{quiet: make(chan struct{}, 1)}
	}
	b.net, b.link, b.inline = net, link, inline
	b.from, b.now, b.batch, b.done = from, now, batch, done
	b.next.Store(0)
	if !inline {
		b.refs.Store(int32(helpers))
		for i := 0; i < helpers; i++ {
			net.paths.Go(pathJob{batch: b})
		}
		return
	}
	b.refs.Store(int32(helpers) + 2) // the helpers, the claim timer, the caller
	if b.timer == nil {
		b.timer = time.AfterFunc(net.claimWithin, b.claimTimeout)
	} else {
		b.timer.Reset(net.claimWithin)
	}
	for i := 0; i < helpers; i++ {
		net.paths.Go(pathJob{batch: b})
	}
	b.serve()
	if b.timer.Stop() {
		b.refs.Add(-1) // the caller still holds its own, so this is not the last
	}
	if b.refs.Add(-1) != 0 {
		<-b.quiet
	}
	b.free()
}

// batchFrame is one submitBatch while its records are served. Every
// claimer but an inline caller, and the claim timer while it is armed, holds
// a reference. The last to let go pools the frame, or, when the caller is
// waiting, tells it to.
type batchFrame struct {
	net    *Network
	link   transport.Conduit
	inline bool
	from   string
	now    time.Time
	batch  []transport.Submission
	done   chan<- transport.Completion
	next   atomic.Int32 // the next record to claim
	refs   atomic.Int32
	quiet  chan struct{} // the waiting caller's wake-up
	timer  *time.Timer   // claimTimeout, armed by an inline caller
}

var batchFramePool sync.Pool

// serve claims and serves records until none is left, or after one unless
// the batch is served inline. A claimed record's completion is not yet
// posted, so the submitter's batch is still live when the claimer reads it.
func (b *batchFrame) serve() {
	for {
		i := int(b.next.Add(1)) - 1
		if i >= len(b.batch) {
			return
		}
		s := b.batch[i]
		resp, injected, err := b.link.Deliver(b.from, s.To, s.Payload, b.now)
		b.done <- transport.Completion{Tag: s.Tag, Resp: resp, Injected: injected, Err: err}
		if !b.inline {
			return
		}
	}
}

// help is a path worker's part: serve, then let go of the frame.
func (b *batchFrame) help() {
	b.serve()
	b.let()
}

// claimTimeout runs claimWithin after an inline submit unless the caller
// stopped it first: a record nobody has claimed by then waits behind
// claimers that wait themselves (on a backend), so each gets a helper of its
// own.
func (b *batchFrame) claimTimeout() {
	if left := len(b.batch) - int(b.next.Load()); left > 0 {
		b.refs.Add(int32(left))
		for i := 0; i < left; i++ {
			b.net.paths.Go(pathJob{batch: b})
		}
	}
	b.let()
}

func (b *batchFrame) let() {
	if b.refs.Add(-1) != 0 {
		return
	}
	if b.inline {
		b.quiet <- struct{}{}
		return
	}
	b.free()
}

func (b *batchFrame) free() {
	b.net, b.link, b.from, b.batch, b.done = nil, nil, "", nil, nil
	batchFramePool.Put(b)
}

// Deliver hands one encrypted record to the relay and returns its encrypted
// response. The member-set lookup is a lock-free snapshot read; an unknown
// relay (not a member) surfaces as unavailability.
func (d directConduit) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	relay := d.net.members.Load().nodes[to]
	if relay == nil {
		return nil, 0, fmt.Errorf("%w: unknown relay %s", ErrRelayUnavailable, to)
	}
	resp, err := relay.handleForward(from, payload, now)
	return resp, 0, err
}

var _ transport.Attestor = directConduit{}

// Attest is the responder half of the attested key exchange for a client in
// another process: verify its offer, install the relay's session half and
// answer with the relay's own offer. (Two members of one network never come
// here; ensurePairLocked attests them without marshalling anything.)
func (d directConduit) Attest(from, to string, offer []byte) ([]byte, error) {
	relay := d.net.members.Load().nodes[to]
	if relay == nil {
		// Not unavailability: whoever sent the client here (a daemon
		// gossiping someone else's ID) fails the attestation.
		return nil, fmt.Errorf("core: no relay %s here", to)
	}
	peer, err := securechan.UnmarshalHandshakeMsg(offer)
	if err != nil {
		return nil, err
	}
	own, reply, err := marshalOffer(relay.handshaker)
	if err != nil {
		return nil, err
	}
	sess, err := relay.handshaker.Establish(own, peer, false)
	if err != nil {
		return nil, err
	}
	relay.admitSession(from, sess)
	return reply, nil
}

// marshalOffer produces one side's handshake offer for one session, and its
// wire form.
func marshalOffer(h *securechan.Handshaker) (*securechan.HandshakeMsg, []byte, error) {
	offer, err := h.Offer()
	if err != nil {
		return nil, nil, err
	}
	wire, err := offer.Marshal()
	return offer, wire, err
}

// SkipRecord consumes the sequence number of a record the server's
// admission shed, without opening it, so the pair stays in step (see
// securechan.Session.Skip). No ecall: the point is to spend nothing.
func (d directConduit) SkipRecord(from, to string, record []byte) error {
	relay := d.net.members.Load().nodes[to]
	if relay == nil {
		return fmt.Errorf("%w: unknown relay %s", ErrRelayUnavailable, to)
	}
	relay.state.mu.RLock()
	rs := relay.state.sessions[from]
	relay.state.mu.RUnlock()
	if rs == nil {
		return fmt.Errorf("%w with %s", ErrNoSession, from)
	}
	return rs.sess.Skip(record)
}

// DropSession closes the relay's session half with from: the server calls it
// when the connection the session was attested on goes away.
func (d directConduit) DropSession(from, to string) {
	if relay := d.net.members.Load().nodes[to]; relay != nil {
		relay.dropSession(from)
	}
}

// forward delivers one encrypted forward request from client to relay and
// returns the decoded response plus the sampled path latency:
// WAN out + relay processing + engine RTT (inside backend) + WAN back.
// It is the blocking form of a forward: sealForward, Deliver, openForward —
// the two halves Search runs k+1 times around one Submit.
//
// The exchange is zero-allocation at steady state: request encoding,
// padding, encryption and response decryption all run in two buffers the
// forward takes from bufPool at the seal and hands back at the open, under
// the pair lock. Delivery itself goes through the network's conduit, the
// seam where internal/simnet injects faults; any failure after the request
// record was sealed breaks the pair (see breakPair), and any failure that is
// not plain unavailability is classified as relay misbehavior so the retry
// layer can blacklist Byzantine relays.
//
// discardPage says the caller will not look at the result page (a fake
// query's response, a capacity probe): the page then gets the same checks
// but is not materialised, and the returned Results are nil.
func (net *Network) forward(client *Node, relayID string, query []byte, now time.Time, discardPage bool) (forwardResponse, time.Duration, error) {
	var c forwardCall
	record, err := net.sealForward(client, relayID, query, discardPage, true, time.Now(), &c)
	if err != nil {
		net.recordRefused(&c, err)
		return forwardResponse{}, c.latency, err
	}
	respCT, injected, err := net.conduit.Deliver(client.id, relayID, record, now)
	return net.openForward(client, &c, transport.Completion{Resp: respCT, Injected: injected, Err: err}, time.Now())
}

// forwardCall is one forward between its two halves: what sealForward leaves
// for openForward. From a successful seal to the end of the open the pair
// lock (ps.mu) is held and the call owns two bufPool buffers: plain, which
// carries the padded request plaintext out and the response plaintext back,
// and ct, which holds the sealed record. The struct lives in its caller's
// frame or in a search's pooled scratch; neither half retains it.
type forwardCall struct {
	ps          *pairState
	plain, ct   *[]byte
	relay       *Node // nil: the relay lives in another process
	relayID     string
	requestID   uint64
	latency     time.Duration // sampled path latency; the answer adds what the link injected
	discardPage bool
	// One clock reading per stage boundary: start → (pair lock, session) →
	// encStart → sealed → (the conduit) → arrived → (the open) → end. Zero
	// for a boundary the forward never reached. A search chains them across
	// its paths: one path's sealed is the next one's start, one answer's end
	// the arrival of an answer that was already waiting.
	start, encStart, sealed, arrived, end time.Time
	spliced                               bool // the answer got as far as the AEAD open
}

// releaseScratch hands the forward's two buffers back to bufPool. The call
// holds none afterwards, so no exit can hand them back twice.
func (c *forwardCall) releaseScratch() {
	putBuf(c.plain)
	putBuf(c.ct)
	c.plain, c.ct = nil, nil
}

// errUnattested is sealForward's refusal to attest inline; it never leaves
// Search, which moves the path to a worker.
var errUnattested = errors.New("core: pair has no session")

// sealForward is the first half of a forward: every check that precedes the
// wire, then the sealed record. On success the pair lock is held, the record
// sits in c's ciphertext buffer and c carries what openForward needs; on
// failure nothing is held and nothing was sealed. start is the clock reading
// the caller already has (a search chains one path's sealed reading into the
// next path's start). With attest false a pair without a session is refused
// with errUnattested instead of running the handshake on the caller's
// goroutine.
func (net *Network) sealForward(client *Node, relayID string, query []byte, discardPage, attest bool, start time.Time, c *forwardCall) ([]byte, error) {
	*c = forwardCall{relayID: relayID, discardPage: discardPage, start: start}
	if relayID == client.id {
		// A node must never relay its own query: the engine would see the
		// requester's identity, voiding the unlinkability argument (§IV).
		return nil, ErrSelfRelay
	}
	if !net.Alive(relayID) {
		return nil, ErrRelayUnavailable
	}
	// A relay that is not a member lives in another process; it is attested
	// and reached through the conduit, if the conduit can do that.
	relay := net.members.Load().nodes[relayID]
	if relay == nil && net.attestor == nil {
		return nil, fmt.Errorf("%w: unknown relay %s", ErrRelayUnavailable, relayID)
	}

	ps := net.pairEntry(client.id, relayID)
	// The secure channel enforces strictly increasing record sequence
	// numbers, so the encrypt → relay → decrypt exchange of one pair is a
	// critical section; distinct pairs proceed in parallel. Attestation
	// (first use, or re-attestation after a break) runs under the same
	// lock acquisition — one lock round trip per forward.
	ps.mu.Lock()
	if ps.client == nil && !attest {
		ps.mu.Unlock()
		return nil, errUnattested
	}
	if err := net.ensurePairLocked(ps, client, relay, relayID); err != nil {
		ps.mu.Unlock()
		return nil, err
	}

	c.latency = net.model.RelayedSearch()

	// Reject oversized queries before allocating a request id: the counter
	// must equal the conduit delivery attempts (the chaos invariant
	// requests == attempts), so no id may be consumed on a path that never
	// reaches the conduit.
	if len(query) > maxWireQueryLen {
		ps.mu.Unlock()
		return nil, fmt.Errorf("%w: query %d bytes", ErrWireOversize, len(query))
	}
	c.requestID = net.nextRequestID()

	// Encode in place behind a 4-byte length prefix, then pad to the fixed
	// request size so a link observer cannot distinguish requests by
	// length (§IV).
	c.encStart = time.Now()
	c.plain, c.ct = getBuf(), getBuf()
	plain := append((*c.plain)[:0], 0, 0, 0, 0)
	plain = appendRequest(plain, c.requestID, query)
	binary.BigEndian.PutUint32(plain, uint32(len(plain)-4))
	plain = appendPadding(plain)
	*c.plain = plain

	ct, err := ps.client.EncryptAppend((*c.ct)[:0], plain)
	if err != nil {
		// Unreachable for an open session (sealing cannot fail), and
		// ensurePairLocked above guarantees one under ps.mu — kept only so a
		// future securechan change fails loudly rather than silently.
		c.releaseScratch()
		ps.mu.Unlock()
		return nil, fmt.Errorf("client encrypt: %w", err)
	}
	*c.ct = ct
	c.sealed = time.Now()
	c.ps, c.relay = ps, relay
	return ct, nil
}

// openForward is the second half of a forward: it consumes the answer to the
// record sealForward produced — every check on it, breakPair on every
// failure but a throttled record — hands the response buffer back to the
// submit seam and the forward's own buffers to bufPool, releases the pair
// lock and records the forward. arrived is the caller's reading of the clock
// when it took the answer in hand. The returned latency is the sampled path
// latency plus what the link injected.
func (net *Network) openForward(client *Node, c *forwardCall, answer transport.Completion, arrived time.Time) (forwardResponse, time.Duration, error) {
	c.arrived = arrived
	c.latency += answer.Injected
	resp, err := net.openLocked(client, c, answer)
	// resp aliases none of the three buffers: the page decode copies, and a
	// record's completion is posted only once nothing reads it any more.
	net.submit.Release(answer)
	c.releaseScratch()
	c.ps.mu.Unlock()
	c.end = time.Now()
	net.recordForward(c, resp, err)
	return resp, c.latency, err
}

// openLocked is openForward's checks, under the pair lock sealForward took.
func (net *Network) openLocked(client *Node, c *forwardCall, answer transport.Completion) (forwardResponse, error) {
	ps := c.ps
	if err := answer.Err; err != nil {
		if errors.Is(err, ErrRelayThrottled) {
			// Shed by the relay's admission before decrypt: it consumed the
			// record's sequence number as we did, so the pair is in step.
			return forwardResponse{}, err
		}
		// The request record consumed a send sequence number but its receipt
		// is unconfirmed: the pair may be desynchronized either way.
		net.breakPair(ps, client, c.relay)
		if errors.Is(err, ErrRelayUnavailable) || errors.Is(err, ErrNoSession) {
			return forwardResponse{}, err
		}
		return forwardResponse{}, fmt.Errorf("%w: relay %s: %v", ErrRelayMisbehaved, c.relayID, err)
	}
	// The response record is the conduit's (relay-owned scratch, a
	// connection's per-pair buffer, a pooled frame); decrypting it into the
	// forward's own plaintext buffer, inside the pair critical section,
	// consumes it before anyone can reuse it.
	c.spliced = true
	respPlain, err := ps.client.DecryptAppend((*c.plain)[:0], answer.Resp)
	if err != nil {
		net.breakPair(ps, client, c.relay)
		return forwardResponse{}, fmt.Errorf("%w: response from %s: %v", ErrRelayMisbehaved, c.relayID, err)
	}
	*c.plain = respPlain
	resp, err := decodeResponseWire(respPlain, c.discardPage)
	if err != nil {
		net.breakPair(ps, client, c.relay)
		return forwardResponse{}, fmt.Errorf("%w: response from %s: %v", ErrRelayMisbehaved, c.relayID, err)
	}
	if resp.RequestID != c.requestID {
		// A stale page passed off as fresh: the AEAD layer stops byte-level
		// replay, the echoed identifier stops a relay replaying its own
		// earlier plaintext (§VI-b).
		net.breakPair(ps, client, c.relay)
		return forwardResponse{}, fmt.Errorf("%w: relay %s: response id %d, want %d", ErrRelayMisbehaved, c.relayID, resp.RequestID, c.requestID)
	}
	return resp, nil
}

// recordForward counts one forward attempt, observes the stages it reached
// and leaves its trace. Stage fields left at zero in the trace show where the
// exchange died (e.g. misbehaved with encrypt+deliver set failed at splice).
func (net *Network) recordForward(c *forwardCall, resp forwardResponse, err error) {
	var encryptNS, deliverNS, spliceNS int64
	if !c.sealed.IsZero() {
		encryptNS = int64(c.sealed.Sub(c.encStart))
		stageEncrypt.Observe(time.Duration(encryptNS))
	}
	if !c.arrived.IsZero() {
		deliverNS = int64(c.arrived.Sub(c.sealed))
		stageDeliver.Observe(time.Duration(deliverNS))
	}
	if c.spliced {
		spliceNS = int64(c.end.Sub(c.arrived))
		stageSplice.Observe(time.Duration(spliceNS))
	}
	outcome, counter := classifyForward(resp, err)
	counter.Inc()
	telemetry.Traces().Record(telemetry.Trace{
		Op:            "forward",
		Peer:          c.relayID,
		Outcome:       outcome,
		StartUnixNano: c.start.UnixNano(),
		TotalNS:       int64(c.end.Sub(c.start)),
		EncryptNS:     encryptNS,
		DeliverNS:     deliverNS,
		SpliceNS:      spliceNS,
	})
}

// recordRefused records a forward sealForward refused: it ends here.
func (net *Network) recordRefused(c *forwardCall, err error) {
	c.end = time.Now()
	net.recordForward(c, forwardResponse{}, err)
}

// classifyForward maps a forward result onto its pre-registered outcome
// counter.
func classifyForward(resp forwardResponse, err error) (string, *telemetry.Counter) {
	switch {
	case err == nil && resp.EngineError != "":
		return forwardOutcomeEngineError, cForwardEngineError
	case err == nil:
		return forwardOutcomeOK, cForwardOK
	case errors.Is(err, ErrSelfRelay):
		return forwardOutcomeSelfRelay, cForwardSelfRelay
	case errors.Is(err, ErrWireOversize):
		return forwardOutcomeOversize, cForwardOversize
	case errors.Is(err, ErrRelayMisbehaved):
		return forwardOutcomeMisbehaved, cForwardMisbehaved
	case errors.Is(err, ErrRelayUnavailable):
		return forwardOutcomeUnavailable, cForwardUnavailable
	default:
		return forwardOutcomeError, cForwardError
	}
}

// breakPair invalidates the attested session between client and relay after
// a failed exchange. A record that was sealed but never confirmed (dropped,
// tampered with, or answered with garbage) leaves the two record counters
// out of step, which would poison every later forward on the pair with
// sequence mismatches; discarding both halves makes the next forward
// re-attest from scratch instead. Both halves are closed so per-session
// observers (the simnet nonce checker) can release their bookkeeping.
// Caller holds ps.mu, which also serializes this with any use of either
// half: both are only ever touched inside the pair's critical section. A
// relay in another process (relay nil) is out of reach: it replaces its half
// on the re-attestation, or drops it with the connection.
func (net *Network) breakPair(ps *pairState, client, relay *Node) {
	if ps.client != nil {
		ps.client.Close()
	}
	ps.client = nil
	if relay != nil {
		relay.dropSession(client.id)
	}
}

// pairShardFor hashes a pair key onto its shard.
func (net *Network) pairShardFor(key pairKey) *pairShard {
	var h maphash.Hash
	h.SetSeed(net.pairSeed)
	h.WriteString(key.client)
	h.WriteByte(0)
	h.WriteString(key.relay)
	return &net.pairShards[h.Sum64()%pairShardCount]
}

// pairEntry returns the pair state slot for client -> relay, inserting an
// empty one on first use. The read path takes only a shard read lock; first
// use upgrades to the shard write lock to insert. The slot may have no live
// session — callers attest via ensurePairLocked under the pair's own lock,
// so other shard entries stay available during the handshake.
func (net *Network) pairEntry(clientID, relayID string) *pairState {
	key := pairKey{clientID, relayID}
	shard := net.pairShardFor(key)

	shard.mu.RLock()
	ps, ok := shard.m[key]
	shard.mu.RUnlock()
	if !ok {
		shard.mu.Lock()
		ps, ok = shard.m[key]
		if !ok {
			ps = &pairState{}
			shard.m[key] = ps
		}
		shard.mu.Unlock()
	}
	return ps
}

// pair returns (establishing on first use) the attested session state
// between client and relay.
func (net *Network) pair(client *Node, relay *Node) (*pairState, error) {
	ps := net.pairEntry(client.id, relay.id)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := net.ensurePairLocked(ps, client, relay, relay.id); err != nil {
		return nil, err
	}
	return ps, nil
}

// ensurePairLocked runs the attestation handshake if the pair has no live
// session (first use, or after breakPair discarded a desynchronized one):
// in process with a member, over the conduit with a relay that is none
// (relay nil). Caller holds ps.mu.
func (net *Network) ensurePairLocked(ps *pairState, client, relay *Node, relayID string) error {
	if ps.client != nil {
		return nil
	}
	if relay == nil {
		return attestRemoteLocked(ps, client, relayID, net.attestor)
	}
	cs, rs, err := securechan.EstablishPair(client.handshaker, relay.handshaker)
	if err != nil {
		return fmt.Errorf("attested session %s->%s: %w", client.id, relay.id, err)
	}
	ps.client = cs
	relay.admitSession(client.id, rs)
	return nil
}

// attestRemoteLocked is the initiator half of the attested key exchange with
// a relay in another process: our offer out through via, the relay's offer
// back, verified. A relay that cannot be reached is unavailable; one that
// refuses our offer or fails verification misbehaved. Caller holds ps.mu.
func attestRemoteLocked(ps *pairState, client *Node, relayID string, via transport.Attestor) error {
	own, offer, err := marshalOffer(client.handshaker)
	if err != nil {
		return fmt.Errorf("attested session %s->%s: %w", client.id, relayID, err)
	}
	reply, err := via.Attest(client.id, relayID, offer)
	if err != nil {
		if errors.Is(err, ErrRelayUnavailable) {
			return err
		}
		return fmt.Errorf("%w: attesting %s: %w", ErrRelayMisbehaved, relayID, err)
	}
	peer, err := securechan.UnmarshalHandshakeMsg(reply)
	if err == nil {
		ps.client, err = client.handshaker.Establish(own, peer, true)
	}
	if err != nil {
		return fmt.Errorf("%w: attesting %s: %w", ErrRelayMisbehaved, relayID, err)
	}
	return nil
}

// RelayRoundTrip performs one full forward round trip (client encrypt →
// relay ecall: decrypt, record, backend, encrypt → client decrypt): the
// operation of the ruler's relay workload (benchmark/). The sampled network
// latency is discarded; the caller measures wall time. The query travels
// as bytes from here on: it is copied into a pooled buffer, not converted.
func (net *Network) RelayRoundTrip(client *Node, relayID, query string, now time.Time) error {
	qb := getBuf()
	*qb = append((*qb)[:0], query...)
	_, _, err := net.forward(client, relayID, *qb, now, true)
	putBuf(qb)
	return err
}

// RequestCount returns the total number of forward requests issued so far.
func (net *Network) RequestCount() uint64 {
	return net.requestCounter.Load()
}

func (net *Network) nextRequestID() uint64 {
	return net.requestCounter.Add(1)
}
