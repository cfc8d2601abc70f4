package nettrans

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/backend"
	"cyclosa/internal/rps"
)

// Membership errors.
var (
	// ErrNoSeed reports a bootstrap in which no configured seed answered a
	// gossip exchange. A daemon started with -bootstrap must fail loudly on
	// this instead of serving an empty view.
	ErrNoSeed = errors.New("nettrans: no bootstrap seed reachable")
	// ErrAttestRejected marks a peer whose enclave failed attestation (bad
	// measurement, forged quote, mismatched provisioning roots) — as opposed
	// to a peer that was merely unreachable. Attest funcs wrap their
	// verification failures in it; the membership layer blacklists on it and
	// only evicts (re-entry allowed) on anything else.
	ErrAttestRejected = errors.New("nettrans: peer attestation rejected")
	// ErrGossipSuppressed refuses a gossip exchange from a blacklisted peer:
	// the node neither merges its buffer nor hands it view information.
	ErrGossipSuppressed = errors.New("nettrans: peer is blacklisted, gossip suppressed")
)

// AttestFunc verifies the enclave of the peer daemon at addr and returns
// its attested code measurement. Implementations must wrap verification
// failures (as opposed to transport failures) in ErrAttestRejected.
type AttestFunc func(id, addr string) (measurement string, err error)

// MembershipConfig configures a Membership.
type MembershipConfig struct {
	// Self is this node's gossiped descriptor: ID is required; Addr is the
	// advertised transport address (settable later via SetAdvertise for
	// daemons that bind an ephemeral port).
	Self rps.Descriptor
	// Bootstrap is the seed daemon addresses joined at start-up. Empty for
	// a seed node (it waits to be joined).
	Bootstrap []string
	// RPS tunes the peer-sampling protocol (view size, healer, swapper).
	RPS rps.Config
	// Interval is the gossip round period (default 1 s).
	Interval time.Duration
	// Pool carries the gossip round trips; when nil a private pool with
	// PoolConfig defaults is created (and owned — Stop tears it down).
	Pool *Pool
	// PoolConfig configures the private pool when Pool is nil.
	PoolConfig PoolConfig
	// Attest re-attests every peer that enters the view; nil disables
	// verification (the directory then resolves any peer with an address —
	// benchmarks and tests only; daemons always attest).
	Attest AttestFunc
	// Logf, when non-nil, receives membership lifecycle diagnostics.
	Logf func(format string, args ...any)
	// BackendStats, when non-nil, is sampled into every view snapshot so
	// `-mode view` shows the daemon's engine-resilience counters (shed,
	// retries, breaker state) live during a brownout.
	BackendStats func() backend.Stats
	// Ledger, when non-nil, is the node's misbehavior PN-counter. Each
	// gossip round appends a ledger exchange (frameAccounting) to the view
	// exchange with the same peer, so blacklist-relevant counts converge
	// network-wide without a coordinator; subjects whose merged count
	// reaches MisbehaviorThreshold are blacklisted locally.
	Ledger *accounting.Ledger
	// MisbehaviorThreshold is the merged misbehavior count at which a
	// subject is blacklisted (default 3; only meaningful with a Ledger).
	MisbehaviorThreshold int64
	// AdmissionStats, when non-nil, is sampled into every view snapshot so
	// `-mode view` shows the daemon's admitted/throttled counters live.
	AdmissionStats func() accounting.LimiterStats
	// WriteStats, when non-nil, is sampled into every view snapshot so
	// `-mode view` and the ops surface show write-path health (coalescing
	// ratio, flushed bytes), not just benches.
	WriteStats func() WriteStatsSnapshot
}

func (cfg *MembershipConfig) applyDefaults() {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.MisbehaviorThreshold <= 0 {
		cfg.MisbehaviorThreshold = 3
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// PeerInfo is one attestation-directory entry as reported by Snapshot.
type PeerInfo struct {
	ID          string `json:"id"`
	Addr        string `json:"addr"`
	Age         int    `json:"age"`
	Attested    bool   `json:"attested"`
	Measurement string `json:"measurement,omitempty"`
}

// ViewSnapshot is the introspection view served over frameView frames: the
// node's partial view joined with its attestation directory.
type ViewSnapshot struct {
	Self        string     `json:"self"`
	Addr        string     `json:"addr"`
	Rounds      uint64     `json:"rounds"`
	Peers       []PeerInfo `json:"peers"`
	Blacklisted []string   `json:"blacklisted,omitempty"`
	// Backend is the daemon's engine-resilience counters; absent when the
	// daemon runs a bare backend (no stack wired in).
	Backend *backend.Stats `json:"backend,omitempty"`
	// Admission is the daemon's per-client admission counters; absent when
	// no rate limiter is wired in.
	Admission *accounting.LimiterStats `json:"admission,omitempty"`
	// Misbehavior is the gossip-merged per-subject misbehavior count; absent
	// when no ledger is wired in or nothing has been recorded.
	Misbehavior map[string]int64 `json:"misbehavior,omitempty"`
	// Write is the daemon server's write-path counters (group-commit
	// flushes, frames, bytes); absent when no sampler is wired in.
	Write *WriteStatsSnapshot `json:"write,omitempty"`
}

// dirEntry is the directory's cached attestation evidence for one peer.
type dirEntry struct {
	addr        string
	attested    bool
	measurement string
	inflight    bool // an attestation round trip is running
}

// Membership is the networked control plane of a daemon: an rps node whose
// exchange buffers travel as gossip frames over the connection pool, plus
// an attestation directory that re-attests every peer entering the view and
// resolves node IDs to verified transport addresses for the data plane.
//
// Lifecycle: NewMembership → (SetAdvertise) → Bootstrap → Start → Stop.
// Wire the same Membership into the daemon's Server (ServerConfig.
// Membership) so it also answers the passive half of exchanges and the
// frameView introspection.
type Membership struct {
	cfg      MembershipConfig
	node     *rps.Node
	pool     *Pool
	ownsPool bool

	mu     sync.Mutex
	dir    map[string]*dirEntry
	rounds uint64
	closed bool

	attestWG sync.WaitGroup

	loopStop chan struct{}
	loopDone chan struct{}
}

// NewMembership builds the membership plane; call Bootstrap to join and
// Start to begin gossiping.
func NewMembership(cfg MembershipConfig) *Membership {
	cfg.applyDefaults()
	if cfg.Self.ID == "" {
		panic("nettrans: MembershipConfig.Self.ID is required")
	}
	pool := cfg.Pool
	owns := false
	if pool == nil {
		pc := cfg.PoolConfig
		if pc.ID == "" {
			pc.ID = string(cfg.Self.ID)
		}
		pool = NewPool(pc)
		owns = true
	}
	rpsCfg := cfg.RPS
	rpsCfg.Addr = cfg.Self.Addr
	if cfg.Ledger != nil {
		// Every blacklist transition — attestation verdict, misbehavior
		// threshold, a local Blacklist call — records threshold-weight evidence
		// in the ledger, exactly once, so the verdict propagates: peers that
		// merge this node's ledger reach the same conclusion without
		// re-observing the misbehavior. Threshold-driven blacklists change
		// nothing here (their evidence is already at threshold).
		ledger, threshold := cfg.Ledger, cfg.MisbehaviorThreshold
		prev := rpsCfg.OnBlacklist
		rpsCfg.OnBlacklist = func(id rps.NodeID) {
			if ledger.Value(string(id)) < threshold {
				ledger.Inc(string(id), uint64(threshold))
			}
			if prev != nil {
				prev(id)
			}
		}
	}
	return &Membership{
		cfg:      cfg,
		node:     rps.NewNode(cfg.Self.ID, nil, rpsCfg),
		pool:     pool,
		ownsPool: owns,
		dir:      make(map[string]*dirEntry),
	}
}

// SetAdvertise updates the address gossiped in the self descriptor — a
// daemon listening on ":0" knows its real port only after binding.
func (m *Membership) SetAdvertise(addr string) {
	m.mu.Lock()
	m.cfg.Self.Addr = addr
	m.mu.Unlock()
	m.node.SetAddr(addr)
}

// Node exposes the underlying rps node (relay sampling, tests).
func (m *Membership) Node() *rps.Node { return m.node }

// Bootstrap joins the overlay: one push-pull exchange with every configured
// seed address. It succeeds if at least one seed answered; with seeds
// configured and none reachable it returns ErrNoSeed (wrapping the last
// failure) so the daemon exits non-zero instead of serving an empty view.
func (m *Membership) Bootstrap() error {
	if len(m.cfg.Bootstrap) == 0 {
		return nil // seed node: it waits to be joined
	}
	var lastErr error
	joined := 0
	for _, addr := range m.cfg.Bootstrap {
		if err := m.exchangeWith(addr); err != nil {
			lastErr = err
			m.cfg.Logf("membership: seed %s: %v", addr, err)
			continue
		}
		joined++
	}
	if joined == 0 {
		return fmt.Errorf("%w (tried %d): %v", ErrNoSeed, len(m.cfg.Bootstrap), lastErr)
	}
	m.reconcile()
	return nil
}

// Start launches the gossip loop: one view exchange with the oldest-known
// peer roughly every Interval, with per-node jitter of ±Interval/4 drawn
// each round. A fleet bootstrapped together would otherwise tick in
// lockstep and hammer the seeds at every interval boundary; jittered
// periods decorrelate within a few rounds. Stop ends the loop.
func (m *Membership) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.loopStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	m.loopStop, m.loopDone = stop, done
	go func() {
		defer close(done)
		// Seed per-node so two nodes with identical start times still draw
		// different periods; fall back on the rng being distinct per process
		// is not enough when a whole fleet shares one binary and boot script.
		h := fnv.New64a()
		h.Write([]byte(m.cfg.Self.ID))
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		timer := time.NewTimer(m.jitteredInterval(rng))
		defer timer.Stop()
		for {
			select {
			case <-timer.C:
				m.Round()
				timer.Reset(m.jitteredInterval(rng))
			case <-stop:
				return
			}
		}
	}()
}

// jitteredInterval draws the next gossip period: Interval ± Interval/4.
func (m *Membership) jitteredInterval(rng *rand.Rand) time.Duration {
	d := m.cfg.Interval
	j := d / 4
	if j <= 0 {
		return d
	}
	return d - j + time.Duration(rng.Int63n(int64(2*j)+1))
}

// Round runs one active gossip round (exported so tests and the daemon's
// drain path can force progress without waiting out the ticker).
func (m *Membership) Round() {
	m.node.Tick()
	peer, ok := m.node.SelectPeerDescriptor()
	if !ok {
		// Stranded: failures emptied the view. Fall back to the bootstrap
		// seeds so the daemon re-enters the overlay instead of serving an
		// empty view forever (the error is logged, not fatal — seeds may
		// themselves be riding out a restart).
		if len(m.cfg.Bootstrap) > 0 {
			if err := m.Bootstrap(); err != nil {
				m.cfg.Logf("membership: re-bootstrap: %v", err)
			}
		}
		return
	}
	if peer.Addr == "" {
		// Not dialable (an in-process descriptor leaked in, or a peer never
		// advertised): treat like an unresponsive peer so the healer evicts.
		m.node.FailExchange(peer.ID)
		return
	}
	if err := m.exchangeWith(peer.Addr); err != nil {
		m.cfg.Logf("membership: exchange with %s (%s): %v", peer.ID, peer.Addr, err)
		m.node.FailExchange(peer.ID)
		return
	}
	m.mu.Lock()
	m.rounds++
	m.mu.Unlock()
	m.reconcile()
	// The ledger exchange rides the same round against the same peer: the
	// view exchange just proved it reachable. Its failure is logged, not
	// charged — an old peer that rejects the frame type (backward-additive
	// extension) is healthy, merely behind.
	if m.cfg.Ledger != nil {
		if err := m.exchangeLedger(peer.Addr); err != nil {
			m.cfg.Logf("membership: ledger exchange with %s (%s): %v", peer.ID, peer.Addr, err)
		}
	}
}

// exchangeLedger runs the active half of one misbehavior-ledger exchange
// against addr: send our full PN-counter state as an accounting frame,
// merge the reply, re-evaluate changed subjects against the blacklist
// threshold.
func (m *Membership) exchangeLedger(addr string) error {
	payload := getFrame()
	enc := m.cfg.Ledger.AppendWire((*payload)[:0])
	*payload = enc
	h, buf, err := m.pool.RoundTrip(addr, frameAccounting, enc)
	putFrame(payload)
	if err != nil {
		return err
	}
	defer putFrame(buf)
	switch h.typ {
	case frameAccounting:
		changed, err := m.cfg.Ledger.MergeWire(*buf)
		if err != nil {
			return fmt.Errorf("bad accounting reply: %w", err)
		}
		m.applyThresholds(changed)
		return nil
	default:
		return refusal("accounting exchange", addr, h, *buf)
	}
}

// refusal renders what a membership exchange got back instead of its reply:
// an err frame, or a frame of a type that answers nothing.
func refusal(what, addr string, h header, payload []byte) error {
	if h.typ != frameErr {
		return fmt.Errorf("nettrans: unexpected frame type %d answering %s", h.typ, what)
	}
	if _, msg, err := decodeErrPayload(payload); err == nil {
		return fmt.Errorf("nettrans: %s rejected by %s: %s", what, addr, msg)
	}
	return fmt.Errorf("nettrans: %s rejected by %s", what, addr)
}

// HandleAccounting is the passive half, called by the server read loop for
// every inbound accounting frame: merge the initiator's PN-counter state,
// return ours (appended to dst). Blacklisted initiators are refused like
// gossip — their evidence could be fabricated wholesale.
func (m *Membership) HandleAccounting(peerID string, payload []byte, dst []byte) ([]byte, error) {
	if m.cfg.Ledger == nil {
		return dst, errors.New("nettrans: no misbehavior ledger")
	}
	if m.node.IsBlacklisted(rps.NodeID(peerID)) {
		return dst, fmt.Errorf("%w: %s", ErrGossipSuppressed, peerID)
	}
	changed, err := m.cfg.Ledger.MergeWire(payload)
	if err != nil {
		return dst, fmt.Errorf("bad accounting buffer: %w", err)
	}
	m.applyThresholds(changed)
	return m.cfg.Ledger.AppendWire(dst), nil
}

// applyThresholds blacklists every listed subject whose merged misbehavior
// count has reached the threshold. It never blacklists self (a node keeps
// serving while operators investigate — the rest of the overlay shuns it
// regardless) and never re-charges the ledger (the evidence that got the
// subject here is already in it), so threshold crossing cannot feed back
// into itself.
func (m *Membership) applyThresholds(subjects []string) {
	for _, id := range subjects {
		if id == string(m.cfg.Self.ID) || m.node.IsBlacklisted(rps.NodeID(id)) {
			continue
		}
		if v := m.cfg.Ledger.Value(id); v >= m.cfg.MisbehaviorThreshold {
			m.cfg.Logf("membership: %s reached misbehavior count %d (threshold %d), blacklisting", id, v, m.cfg.MisbehaviorThreshold)
			m.node.Blacklist(rps.NodeID(id))
			m.mu.Lock()
			delete(m.dir, id)
			m.mu.Unlock()
		}
	}
}

// exchangeWith runs the active half of one push-pull exchange against addr:
// send our buffer as a gossip frame, merge the reply buffer.
func (m *Membership) exchangeWith(addr string) error {
	buffer := m.node.InitiateExchange()
	payload := getFrame()
	enc, err := rps.AppendView((*payload)[:0], buffer)
	if err != nil {
		putFrame(payload)
		return fmt.Errorf("encode view: %w", err)
	}
	*payload = enc
	h, buf, err := m.pool.RoundTrip(addr, frameGossip, enc)
	putFrame(payload)
	if err != nil {
		return err
	}
	defer putFrame(buf)
	switch h.typ {
	case frameGossip:
		reply, err := rps.DecodeView(*buf)
		if err != nil {
			return fmt.Errorf("bad gossip reply: %w", err)
		}
		m.node.CompleteExchange(reply)
		return nil
	default:
		return refusal("gossip", addr, h, *buf)
	}
}

// HandleGossip is the passive half, called by the server read loop for
// every inbound gossip frame: merge the initiator's buffer, return our
// encoded reply buffer (appended to dst). A blacklisted initiator is
// refused with ErrGossipSuppressed — it gets neither admission nor view
// information.
func (m *Membership) HandleGossip(peerID string, payload []byte, dst []byte) ([]byte, error) {
	buffer, err := rps.DecodeView(payload)
	if err != nil {
		return dst, fmt.Errorf("bad gossip buffer: %w", err)
	}
	// The hello identity and, when present, the buffer's leading self
	// descriptor both name the initiator; suppress either if blacklisted.
	if m.node.IsBlacklisted(rps.NodeID(peerID)) {
		return dst, fmt.Errorf("%w: %s", ErrGossipSuppressed, peerID)
	}
	if len(buffer) > 0 && m.node.IsBlacklisted(buffer[0].ID) {
		return dst, fmt.Errorf("%w: %s", ErrGossipSuppressed, buffer[0].ID)
	}
	reply := m.node.HandleExchange(buffer)
	out, err := rps.AppendView(dst, reply)
	if err != nil {
		return dst, fmt.Errorf("encode gossip reply: %w", err)
	}
	m.reconcile()
	return out, nil
}

// reconcile synchronizes the attestation directory with the current view:
// new view entries get directory entries and (when an Attest func is
// configured) an asynchronous re-attestation; entries whose peer left the
// view are pruned.
func (m *Membership) reconcile() {
	view := m.node.View()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	inView := make(map[string]struct{}, len(view))
	var attests []rps.Descriptor
	for _, d := range view {
		id := string(d.ID)
		inView[id] = struct{}{}
		e := m.dir[id]
		if e == nil {
			e = &dirEntry{addr: d.Addr}
			m.dir[id] = e
		}
		if d.Addr != "" && d.Addr != e.addr {
			// The peer moved (or we finally learned its address): stale
			// evidence does not transfer to a new address.
			e.addr = d.Addr
			e.attested = false
			e.measurement = ""
		}
		if m.cfg.Attest != nil && e.addr != "" && !e.attested && !e.inflight {
			e.inflight = true
			attests = append(attests, rps.Descriptor{ID: d.ID, Addr: e.addr})
		}
	}
	for id := range m.dir {
		if _, ok := inView[id]; !ok && !m.dir[id].inflight {
			delete(m.dir, id)
		}
	}
	// Add under the lock: Stop flips closed under the same lock before it
	// Waits, so every reconcile that passed the closed check above has
	// already registered its attestations.
	m.attestWG.Add(len(attests))
	m.mu.Unlock()

	for _, d := range attests {
		go m.attest(string(d.ID), d.Addr)
	}
}

// attest runs one re-attestation round trip against a peer that entered the
// view. Verification failure blacklists the peer (it never re-enters);
// transport failure evicts it from the view with re-entry allowed.
func (m *Membership) attest(id, addr string) {
	defer m.attestWG.Done()
	meas, err := m.cfg.Attest(id, addr)
	m.mu.Lock()
	e := m.dir[id]
	if e != nil {
		e.inflight = false
	}
	switch {
	case err == nil && e != nil && e.addr == addr:
		e.attested = true
		e.measurement = meas
	case err == nil:
		// Address changed mid-flight; the next reconcile re-attests.
	default:
		delete(m.dir, id)
	}
	m.mu.Unlock()
	if err == nil {
		m.cfg.Logf("membership: attested %s at %s (enclave %s)", id, addr, meas)
		return
	}
	if errors.Is(err, ErrAttestRejected) {
		m.cfg.Logf("membership: %s at %s failed attestation, blacklisting: %v", id, addr, err)
		// The rps OnBlacklist hook records the ledger evidence, so the
		// verdict gossips: peers merge the count instead of each having to
		// re-verify a forged quote for themselves.
		m.node.Blacklist(rps.NodeID(id))
		return
	}
	m.cfg.Logf("membership: %s at %s unreachable for attestation, evicting: %v", id, addr, err)
	m.node.FailExchange(rps.NodeID(id))
}

// Resolve maps a node ID to its verified transport address, the resolver
// the TCP data plane plugs into relay selection. With an Attest func
// configured only attested peers resolve; without one, any peer with a
// known address does.
func (m *Membership) Resolve(id string) (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.dir[id]
	if e == nil || e.addr == "" {
		return "", false
	}
	if m.cfg.Attest != nil && !e.attested {
		return "", false
	}
	return e.addr, true
}

// Blacklist evicts a peer from the view and the directory and refuses its
// descriptor forever — the hook for upper layers that detect relay
// misbehavior (PR 3's blacklist semantics, extended to the control plane).
// With a ledger wired in, the rps OnBlacklist hook records the verdict at
// threshold weight so it propagates: peers that merge this node's ledger
// reach the same conclusion without re-observing the misbehavior.
func (m *Membership) Blacklist(id string) {
	m.node.Blacklist(rps.NodeID(id))
	m.mu.Lock()
	delete(m.dir, id)
	m.mu.Unlock()
}

// Snapshot returns the introspection view: partial view entries joined with
// their attestation evidence, plus the blacklist.
func (m *Membership) Snapshot() ViewSnapshot {
	view := m.node.View()
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := ViewSnapshot{
		Self:   string(m.cfg.Self.ID),
		Addr:   m.cfg.Self.Addr,
		Rounds: m.rounds,
	}
	if m.cfg.BackendStats != nil {
		bs := m.cfg.BackendStats()
		snap.Backend = &bs
	}
	if m.cfg.AdmissionStats != nil {
		as := m.cfg.AdmissionStats()
		snap.Admission = &as
	}
	if m.cfg.Ledger != nil {
		if mv := m.cfg.Ledger.Values(); len(mv) > 0 {
			snap.Misbehavior = mv
		}
	}
	if m.cfg.WriteStats != nil {
		ws := m.cfg.WriteStats()
		snap.Write = &ws
	}
	for _, d := range view {
		p := PeerInfo{ID: string(d.ID), Addr: d.Addr, Age: d.Age}
		if e := m.dir[p.ID]; e != nil {
			if p.Addr == "" {
				p.Addr = e.addr
			}
			p.Attested = e.attested
			p.Measurement = e.measurement
		}
		snap.Peers = append(snap.Peers, p)
	}
	for _, id := range m.node.BlacklistedIDs() {
		snap.Blacklisted = append(snap.Blacklisted, string(id))
	}
	return snap
}

// marshalSnapshot renders the snapshot for a frameView reply.
func (m *Membership) marshalSnapshot() ([]byte, error) {
	return json.Marshal(m.Snapshot())
}

// Stop ends the gossip loop, waits for in-flight attestations and releases
// the owned pool. Idempotent.
func (m *Membership) Stop() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	stop, done := m.loopStop, m.loopDone
	m.loopStop, m.loopDone = nil, nil
	m.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	m.attestWG.Wait()
	if m.ownsPool {
		m.pool.Close()
	}
}

// FetchView performs one introspection round trip against a daemon: dial,
// hello, frameView request, JSON snapshot back. It is the transport behind
// `cyclosa-node -mode view`.
func FetchView(addr string, cfg PoolConfig) (*ViewSnapshot, error) {
	if cfg.ID == "" {
		cfg.ID = "view-probe"
	}
	pool := NewPool(cfg)
	defer pool.Close()
	h, buf, err := pool.RoundTrip(addr, frameView, nil)
	if err != nil {
		return nil, err
	}
	defer putFrame(buf)
	switch h.typ {
	case frameView:
		var snap ViewSnapshot
		if err := json.Unmarshal(*buf, &snap); err != nil {
			return nil, fmt.Errorf("nettrans: bad view snapshot from %s: %w", addr, err)
		}
		return &snap, nil
	default:
		return nil, refusal("view", addr, h, *buf)
	}
}
