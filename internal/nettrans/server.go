package nettrans

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/core"
	"cyclosa/internal/transport"
	"cyclosa/internal/workers"
)

// ServerConfig configures a Server.
type ServerConfig struct {
	// ID is the identity announced in the hello preamble (defaults to the
	// listen address).
	ID string
	// Handler serves the conduit data plane: every data frame becomes one
	// Deliver call. nil rejects data frames (control-plane-only server). A
	// Handler that terminates attested sessions (a hosted core.Node's local
	// conduit) is a transport.Attestor and gets the attest frames too; the
	// sessions they create belong to the connection they arrived on.
	Handler transport.Conduit
	// Membership serves the gossip control plane (gossip/view frames): the
	// passive half of view exchanges and the introspection snapshot. nil
	// rejects both (data-plane-only server).
	Membership *Membership
	// Admission, when non-nil, rate-limits the data plane per client (keyed
	// by hello identity) before a data frame is dispatched; a session's
	// frames count only on the connection it was attested on. An over-quota
	// record is shed unopened — its sequence number is consumed through the
	// Handler (securechan.Session.Skip) so the session stays in sync, but no
	// AEAD, enclave or engine work is spent — and refused as throttled.
	Admission *accounting.Limiter
	// MaxFrame bounds a frame payload (default DefaultMaxFrame).
	MaxFrame int
	// MaxInFlight bounds concurrently dispatched exchanges across all
	// connections (default 256). When full, a connection's read loop blocks,
	// pushing back on the flooding peer through TCP instead of growing an
	// unbounded queue.
	MaxInFlight int
	// IdleTimeout closes a connection with no inbound frame for this long
	// (default 2 minutes).
	IdleTimeout time.Duration
	// HelloTimeout bounds the connection preamble (default 10 s).
	HelloTimeout time.Duration
	// DrainTimeout bounds the graceful drain on Close (default 5 s): after
	// it, in-flight exchanges are abandoned and connections closed hard.
	DrainTimeout time.Duration
	// Logf, when non-nil, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (cfg *ServerConfig) applyDefaults() {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 256
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 10 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
}

// sessionHost is what a Handler that terminates attested sessions offers
// beyond Deliver (core's direct conduit does): the responder half of the
// key exchange, the no-decrypt sequence skip admission sheds with, and the
// teardown of a session whose connection went away.
type sessionHost interface {
	transport.Attestor
	SkipRecord(from, to string, record []byte) error
	DropSession(from, to string)
}

// Server accepts frame-protocol connections and serves the conduit data
// plane and the membership control plane over them.
type Server struct {
	cfg    ServerConfig
	host   sessionHost // cfg.Handler, when it terminates sessions
	ln     net.Listener
	wstats WriteStats // aggregated across all connections

	sem      chan struct{}
	inflight sync.WaitGroup

	// workers run the dispatched exchanges, so a steady request rate reuses
	// a small set of goroutines instead of spawning one per exchange; Close
	// stops them.
	workers *workers.Pool[dataJob]

	mu    sync.Mutex
	conns map[*frameConn]struct{}
	// sessions maps each attested (from, to) pair to the connection that
	// owns its session: only that connection may re-attest the pair, and its
	// teardown drops the session.
	sessions map[pairKey]*frameConn
	closed   bool

	serving  bool          // Serve entered; Close only waits on the loop then
	loopDone chan struct{} // closed when the accept loop exits
}

// NewServer builds a server; call Start (or Listen + Serve) to run it.
func NewServer(cfg ServerConfig) *Server {
	cfg.applyDefaults()
	s := &Server{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		conns:    make(map[*frameConn]struct{}),
		sessions: make(map[pairKey]*frameConn),
		loopDone: make(chan struct{}),
	}
	s.host, _ = cfg.Handler.(sessionHost)
	s.workers = workers.New("dispatch", s.runDispatched)
	return s
}

// WriteStats snapshots the server's aggregated write-path counters.
func (s *Server) WriteStats() WriteStatsSnapshot { return s.wstats.Snapshot() }

// Listen binds the listen socket (addr like "127.0.0.1:0") without serving
// yet; Serve runs the accept loop.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return nil, errors.New("nettrans: server closed")
	}
	s.ln = ln
	if s.cfg.ID == "" {
		s.cfg.ID = ln.Addr().String()
	}
	s.mu.Unlock()
	return ln.Addr(), nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Start binds addr and serves in a background goroutine; an accept-loop
// failure is reported through Logf (Close still ends the loop cleanly).
func (s *Server) Start(addr string) error {
	if _, err := s.Listen(addr); err != nil {
		return err
	}
	go func() {
		if err := s.Serve(); err != nil {
			s.cfg.Logf("nettrans: accept loop failed: %v", err)
		}
	}()
	return nil
}

// Serve runs the accept loop until Close. Listen must have been called.
func (s *Server) Serve() error {
	defer close(s.loopDone)
	s.mu.Lock()
	ln := s.ln
	s.serving = true
	s.mu.Unlock()
	if ln == nil {
		return errors.New("nettrans: Serve before Listen")
	}
	var acceptDelay time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			// Transient accept failures (fd exhaustion, ECONNABORTED) must
			// not brick the listener for the life of the daemon: back off
			// and retry, like net/http does.
			if ne, ok := err.(net.Error); ok && ne.Temporary() { //nolint:staticcheck // the standard accept-retry test
				if acceptDelay == 0 {
					acceptDelay = 5 * time.Millisecond
				} else if acceptDelay *= 2; acceptDelay > time.Second {
					acceptDelay = time.Second
				}
				s.cfg.Logf("nettrans: accept: %v; retrying in %v", err, acceptDelay)
				time.Sleep(acceptDelay)
				continue
			}
			return err
		}
		acceptDelay = 0
		go s.serveConn(conn)
	}
}

// register tracks a live connection; it fails when the server is draining.
func (s *Server) register(fc *frameConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[fc] = struct{}{}
	return true
}

func (s *Server) unregister(fc *frameConn) {
	s.mu.Lock()
	delete(s.conns, fc)
	s.mu.Unlock()
}

// dataJob is one data frame on its way to handleData, decoded by the
// connection's read loop and handed to a dispatch worker by value (no
// closure per frame). from and to are the read loop's interned ids; record
// aliases buf.
type dataJob struct {
	fc       *frameConn
	stream   uint64
	buf      *[]byte
	nowNano  int64
	from, to string
	record   []byte
}

// maxInternedIDs bounds a connection's id table: a peer naming more
// distinct ids than this gets a fresh string per id past the bound, instead
// of a table that grows with what it sends.
const maxInternedIDs = 1024

// idTable interns the node ids a connection's data frames name, so a warm
// frame hands its Handler the two strings without allocating. The read loop
// owns it; nothing else touches it, so it takes no lock.
type idTable map[string]string

// intern returns id as a string: the table's copy when it has one.
func (t idTable) intern(id []byte) string {
	if s, ok := t[string(id)]; ok {
		return s
	}
	s := string(id)
	if len(t) < maxInternedIDs {
		t[s] = s
	}
	return s
}

// dispatch runs one exchange on a bounded worker slot. It returns false when
// the server is draining (the exchange is not run). Acquiring the slot blocks
// the calling read loop — bounded in-flight work is the backpressure. The
// exchange runs on a lingering worker (see package workers), so a steady
// request rate pays the goroutine start cost once, not per exchange.
func (s *Server) dispatch(job dataJob) bool {
	s.sem <- struct{}{}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.sem
		return false
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	s.workers.Go(job)
	return true
}

// runDispatched is the dispatch workers' job function: run the exchange,
// then give back the slot dispatch took for it.
func (s *Server) runDispatched(job dataJob) {
	defer func() {
		<-s.sem
		s.inflight.Done()
	}()
	s.handleData(job)
}

// serveConn runs one connection: hello exchange, then the frame loop.
func (s *Server) serveConn(nc net.Conn) {
	fc := newFrameConn(nc, s.cfg.MaxFrame, writeOptions{stats: &s.wstats})
	if !s.register(fc) {
		fc.Close()
		return
	}
	var owned []pairKey // pairs attested on this connection
	ids := make(idTable)
	defer func() {
		s.unregister(fc)
		fc.Close()
		// A dropped connection must not leak session state: closing the
		// responder halves here makes the next connection re-attest with
		// fresh nonce counters.
		s.dropSessions(owned)
	}()

	peer, err := fc.expectHello(s.cfg.HelloTimeout)
	if err != nil {
		s.cfg.Logf("nettrans: %s: bad preamble: %v", nc.RemoteAddr(), err)
		return
	}
	if err := fc.sendHello(s.cfg.ID); err != nil {
		return
	}
	s.cfg.Logf("nettrans: %s: connected (peer %q)", nc.RemoteAddr(), peer)

	for {
		h, buf, err := fc.readFrame(s.cfg.IdleTimeout)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				s.cfg.Logf("nettrans: %s: read: %v", nc.RemoteAddr(), err)
			}
			return
		}
		switch h.typ {
		case frameData:
			// Decoded once, here; admission precedes dispatch and decrypt:
			// an over-quota record costs a sequence-number skip, nothing else.
			job := dataJob{fc: fc, stream: h.stream, buf: buf}
			code, msg := s.admitData(peer, owned, ids, &job)
			if code == 0 && !s.dispatch(job) {
				// Draining: refuse the new exchange but keep the connection
				// open — answers already dispatched on it must still flush;
				// Close cuts the socket once the drain completes.
				code, msg = errCodeUnavailable, "server draining"
			}
			if code != 0 {
				putFrame(buf)
				if fc.writeErrFrame(h.stream, code, msg) != nil {
					return
				}
			}
		case frameAttest:
			// A key exchange is one X25519 (plus, for a quote not seen
			// before, one signature check); it runs inline, like the
			// control-plane frames.
			err := s.handleAttest(fc, peer, h.stream, *buf, &owned)
			putFrame(buf)
			if err != nil {
				return
			}
		case frameGossip, frameAccounting, frameView:
			// The passive half of a membership exchange is a few map merges
			// (or one snapshot); it runs inline rather than occupying a
			// dispatch slot.
			err := s.serveControl(fc, h, *buf, peer)
			putFrame(buf)
			if err != nil {
				return
			}
		case frameGoaway, frameHello:
			putFrame(buf) // tolerated mid-stream; nothing to do
		default:
			// resp and err frames travel server -> client only; receiving
			// one is a protocol violation, so the connection is cut rather
			// than risking desynchronized framing.
			putFrame(buf)
			s.cfg.Logf("nettrans: %s: unexpected frame type %d", nc.RemoteAddr(), h.typ)
			return
		}
	}
}

// handleData serves one conduit exchange: deliver, respond. It owns the
// job's buffer and releases it. Any response-write failure closes the
// connection (a failed flush already has; this covers a response that could
// not even be queued), so a peer that stopped reading cannot keep feeding us
// work whose answers all silently vanish.
func (s *Server) handleData(job dataJob) {
	defer putFrame(job.buf)
	fc := job.fc
	resp, injected, err := s.cfg.Handler.Deliver(job.from, job.to, job.record, time.Unix(0, job.nowNano))
	if err != nil {
		if fc.writeErrFrame(job.stream, codeFor(err), err.Error()) != nil {
			fc.Close()
		}
		return
	}
	meta := getFrame()
	*meta = appendRespMeta((*meta)[:0], int64(injected), len(resp))
	// The response record is copied into the write batch before this
	// exchange returns; the conduit contract keeps it valid until the pair's
	// next delivery, which cannot start until the requester has read this
	// frame.
	if fc.writeFrame(frameResp, job.stream, *meta, resp) != nil {
		fc.Close()
	}
	putFrame(meta)
}

// serveControl answers one membership exchange on the stream it came in on:
// merge the initiator's view buffer (gossip) or PN-counter state
// (accounting) and reply with ours, or render the introspection snapshot
// (view). The error returned is the connection's write error; a refused
// exchange is an err frame.
func (s *Server) serveControl(fc *frameConn, h header, payload []byte, peer string) error {
	m := s.cfg.Membership
	switch {
	case m == nil:
		return fc.writeErrFrame(h.stream, errCodeRejected, "no membership plane")
	case len(payload) > maxGossipLen:
		return fc.writeErrFrame(h.stream, errCodeRejected, "membership payload exceeds limit")
	}
	reply := getFrame()
	defer putFrame(reply)
	var err error
	switch h.typ {
	case frameGossip:
		*reply, err = m.HandleGossip(peer, payload, (*reply)[:0])
	case frameAccounting:
		*reply, err = m.HandleAccounting(peer, payload, (*reply)[:0])
	default:
		*reply, err = m.marshalSnapshot()
	}
	if err != nil {
		s.cfg.Logf("nettrans: %s: membership frame type %d: %v", fc.c.RemoteAddr(), h.typ, err)
		return fc.writeErrFrame(h.stream, errCodeRejected, err.Error())
	}
	return fc.writeFrame(h.typ, h.stream, *reply)
}

// codeFor picks the err frame code that tells the requester what to do
// about a Handler failure (see the errCode constants).
func codeFor(err error) byte {
	switch {
	case errors.Is(err, core.ErrNoSession):
		return errCodeNoSession
	case errors.Is(err, core.ErrRelayUnavailable):
		return errCodeUnavailable
	}
	return errCodeRejected
}

// admitData decodes a data frame into job — its ids interned through ids —
// and decides whether it is dispatched (code 0) or refused with an err
// frame. With a Handler that terminates sessions, an admission-controlled
// frame must ride a session attested on this connection: from is then the
// hello identity Allow charges, and no other connection can spend that
// client's tokens or move its session (the skip below checks no AEAD tag).
// An over-quota record is refused unopened — the Handler consumes its
// sequence number, so the session survives the refusal.
func (s *Server) admitData(peer string, owned []pairKey, ids idTable, job *dataJob) (code byte, msg string) {
	if s.cfg.Handler == nil {
		return errCodeRejected, "no data-plane handler"
	}
	nowNano, from, to, record, err := decodeDataPayload(*job.buf)
	if err != nil {
		return errCodeRejected, fmt.Sprintf("bad data frame: %v", err)
	}
	job.nowNano, job.from, job.to, job.record = nowNano, ids.intern(from), ids.intern(to), record
	switch {
	case s.cfg.Admission == nil:
		return 0, ""
	case s.host != nil && !slices.Contains(owned, pairKey{job.from, job.to}):
		return errCodeNoSession, "no session attested on this connection"
	case s.cfg.Admission.Allow(peer) == nil:
		return 0, ""
	case s.host != nil:
		if err := s.host.SkipRecord(job.from, job.to, record); err != nil {
			// Nothing was consumed; the sender must not believe otherwise
			// (nor learn which sequence number the session expects).
			return codeFor(err), "record refused unopened"
		}
	}
	mThrottledRecords.Inc()
	return errCodeThrottled, "client over rate limit"
}

// handleAttest serves one attest frame: the Handler verifies the offer and
// installs its session half, which from then on belongs to this connection
// (owned lists its pairs). A refusal is an err frame on a connection that
// stays up; the error returned is the connection's write error.
func (s *Server) handleAttest(fc *frameConn, peer string, stream uint64, payload []byte, owned *[]pairKey) error {
	if s.host == nil {
		return fc.writeErrFrame(stream, errCodeRejected, "no attested handler")
	}
	from, to, offer, err := decodeAttestPayload(payload)
	if err != nil {
		return fc.writeErrFrame(stream, errCodeRejected, fmt.Sprintf("bad attest frame: %v", err))
	}
	if string(from) != peer {
		// The hello identity is what admission charges and what owns the
		// session; a connection attests in its own name only.
		return fc.writeErrFrame(stream, errCodeRejected, fmt.Sprintf("attest for %q on the connection of %q", from, peer))
	}
	key := pairKey{peer, string(to)}
	if !s.claimSession(key, fc) {
		// Whoever holds the live session keeps it: a second connection
		// naming the same client cannot replace (and so desynchronise) it.
		return fc.writeErrFrame(stream, errCodeBusy, "session is live on another connection")
	}
	fresh := !slices.Contains(*owned, key)
	reply, err := s.host.Attest(key.from, key.to, offer)
	if err == nil && len(reply) > maxHandshakeLen {
		err = fmt.Errorf("handshake reply %d bytes exceeds %d", len(reply), maxHandshakeLen)
	}
	if err != nil {
		if fresh {
			s.dropSessions([]pairKey{key})
		}
		return fc.writeErrFrame(stream, errCodeRejected, err.Error())
	}
	if fresh {
		*owned = append(*owned, key)
	}
	return fc.writeFrame(frameAttest, stream, reply)
}

// claimSession makes fc the owner of the pair's session unless another live
// connection is.
func (s *Server) claimSession(key pairKey, fc *frameConn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if owner := s.sessions[key]; owner != nil && owner != fc {
		return false
	}
	s.sessions[key] = fc
	return true
}

// dropSessions ends sessions their connection owned: the Handler's halves
// first, then the claims, or a successor's new session could be the one
// dropped.
func (s *Server) dropSessions(keys []pairKey) {
	for _, key := range keys {
		s.host.DropSession(key.from, key.to)
	}
	s.mu.Lock()
	for _, key := range keys {
		delete(s.sessions, key)
	}
	s.mu.Unlock()
}

// Close gracefully drains the server: stop accepting, notify peers with a
// goaway, let in-flight exchanges finish (bounded by DrainTimeout), then
// close every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	serving := s.serving
	conns := make([]*frameConn, 0, len(s.conns))
	for fc := range s.conns {
		conns = append(conns, fc)
	}
	s.mu.Unlock()

	// Reap idle dispatch workers; ones mid-job finish it (inflight below).
	s.workers.Stop()
	if ln != nil {
		ln.Close()
	}
	// Best-effort goaway, fired concurrently: a stalled peer can hold a
	// connection's write lock for the full write timeout, and Close must be
	// bounded by DrainTimeout, not by the slowest peer times the conn
	// count. Stragglers error out once the connections are closed below.
	for _, fc := range conns {
		go fc.writeFrame(frameGoaway, 0) //nolint:errcheck // best-effort notice
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.cfg.Logf("nettrans: drain timeout, closing with work in flight")
	}

	for _, fc := range conns {
		fc.Close()
	}
	if serving {
		<-s.loopDone
	}
	return nil
}
