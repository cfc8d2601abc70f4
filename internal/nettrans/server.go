package nettrans

import (
	"errors"
	"fmt"
	"net"
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
	// Deliver call. nil rejects data frames (service-only server).
	Handler transport.Conduit
	// Service serves the attested query plane (attest/query frames). nil
	// rejects them (conduit-only server).
	Service *RelayService
	// Membership serves the gossip control plane (gossip/view frames): the
	// passive half of view exchanges and the introspection snapshot. nil
	// rejects both (data-plane-only server).
	Membership *Membership
	// Admission, when non-nil, rate-limits the attested query plane per
	// client (keyed by hello identity). Over-quota queries are shed before
	// decrypt — the record's sequence number is consumed
	// (securechan.Session.Skip) so the strict counter-nonce session stays in
	// sync, but no AEAD or engine work is spent — and refused with a
	// throttled err frame.
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

// Server accepts frame-protocol connections and serves the conduit data
// plane and/or the attested query service over them.
type Server struct {
	cfg    ServerConfig
	ln     net.Listener
	wstats WriteStats // aggregated across all connections

	sem      chan struct{}
	inflight sync.WaitGroup

	// workers run the dispatched exchanges, so a steady request rate reuses
	// a small set of goroutines instead of spawning one per exchange; Close
	// stops them.
	workers *workers.Pool[func()]

	mu     sync.Mutex
	conns  map[*frameConn]struct{}
	closed bool

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
		loopDone: make(chan struct{}),
	}
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

// dispatch runs work on a bounded worker slot. It returns false when the
// server is draining (the work is not run). Acquiring the slot blocks the
// calling read loop — bounded in-flight work is the backpressure. The work
// runs on a lingering worker (see package workers), so a steady request
// rate pays the goroutine start cost once, not per exchange.
func (s *Server) dispatch(work func()) bool {
	s.sem <- struct{}{}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.sem
		return false
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	s.workers.Go(work)
	return true
}

// runDispatched is the dispatch workers' job function: run the exchange,
// then give back the slot dispatch took for it.
func (s *Server) runDispatched(work func()) {
	defer func() {
		<-s.sem
		s.inflight.Done()
	}()
	work()
}

// serveConn runs one connection: hello exchange, then the frame loop.
func (s *Server) serveConn(nc net.Conn) {
	fc := newFrameConn(nc, s.cfg.MaxFrame, writeOptions{stats: &s.wstats})
	if !s.register(fc) {
		fc.Close()
		return
	}
	var svc *serviceConn
	defer func() {
		s.unregister(fc)
		fc.Close()
		if svc != nil {
			// A dropped connection must not leak session state: closing the
			// responder half here (the dialer closes its own) makes the next
			// connection re-attest with fresh nonce counters.
			svc.close()
		}
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
			if s.cfg.Handler == nil {
				putFrame(buf)
				if fc.writeErrFrame(h.stream, errCodeRejected, "no data-plane handler") != nil {
					return
				}
				continue
			}
			if !s.dispatch(func() { s.handleData(fc, h, buf) }) {
				// Draining: refuse the new exchange but keep the connection
				// open — answers already dispatched on it must still flush;
				// Close cuts the socket once the drain completes.
				putFrame(buf)
				if fc.writeErrFrame(h.stream, errCodeUnavailable, "server draining") != nil {
					return
				}
				continue
			}
		case frameAttest:
			if s.cfg.Service == nil {
				putFrame(buf)
				if fc.writeErrFrame(h.stream, errCodeRejected, "no attested service") != nil {
					return
				}
				continue
			}
			if svc == nil {
				svc = s.cfg.Service.newConn(fc, peer)
			}
			err := svc.handleAttest(h, *buf)
			putFrame(buf)
			if err != nil {
				s.cfg.Logf("nettrans: %s: attest: %v", nc.RemoteAddr(), err)
				return
			}
		case frameQuery:
			if svc == nil || !svc.attested() {
				putFrame(buf)
				s.cfg.Logf("nettrans: %s: query before attestation", nc.RemoteAddr())
				return
			}
			// Admission precedes decrypt: an over-quota record must cost no
			// AEAD work, only a sequence-number skip to keep the strict
			// counter-nonce session in sync.
			if s.cfg.Admission != nil && s.cfg.Admission.Allow(peer) != nil {
				err := svc.skipRecord(*buf)
				putFrame(buf)
				if err != nil {
					// A bad sequence prefix means the session is broken either
					// way; cut, exactly as a failed decrypt would.
					s.cfg.Logf("nettrans: %s: throttled query skip: %v", nc.RemoteAddr(), err)
					return
				}
				mThrottledRecords.Inc()
				if fc.writeErrFrame(h.stream, errCodeThrottled, "client over rate limit") != nil {
					return
				}
				continue
			}
			// Decrypt in the read loop — records must be opened in arrival
			// order — then dispatch the engine work.
			work, err := svc.prepareQuery(h, *buf)
			putFrame(buf)
			if err != nil {
				s.cfg.Logf("nettrans: %s: query: %v", nc.RemoteAddr(), err)
				return
			}
			if !s.dispatch(work) {
				// Same drain rule as data frames: refuse, don't cut.
				if fc.writeErrFrame(h.stream, errCodeUnavailable, "server draining") != nil {
					return
				}
				continue
			}
		case frameGossip:
			// The passive half of a view exchange is a few map merges; it
			// runs inline rather than occupying a dispatch slot.
			if len(*buf) > maxGossipLen {
				putFrame(buf)
				if fc.writeErrFrame(h.stream, errCodeRejected, "gossip payload exceeds limit") != nil {
					return
				}
				continue
			}
			if s.cfg.Membership == nil {
				putFrame(buf)
				if fc.writeErrFrame(h.stream, errCodeRejected, "no membership plane") != nil {
					return
				}
				continue
			}
			reply := getFrame()
			out, gerr := s.cfg.Membership.HandleGossip(peer, *buf, (*reply)[:0])
			putFrame(buf)
			if gerr != nil {
				putFrame(reply)
				s.cfg.Logf("nettrans: %s: gossip: %v", nc.RemoteAddr(), gerr)
				if fc.writeErrFrame(h.stream, errCodeRejected, gerr.Error()) != nil {
					return
				}
				continue
			}
			*reply = out
			werr := fc.writeFrame(frameGossip, h.stream, out)
			putFrame(reply)
			if werr != nil {
				return
			}
		case frameAccounting:
			// The passive half of a misbehavior-ledger exchange: merge the
			// initiator's PN-counter state, reply with ours. A few map
			// merges, so it runs inline like gossip.
			if len(*buf) > maxGossipLen {
				putFrame(buf)
				if fc.writeErrFrame(h.stream, errCodeRejected, "accounting payload exceeds limit") != nil {
					return
				}
				continue
			}
			if s.cfg.Membership == nil {
				putFrame(buf)
				if fc.writeErrFrame(h.stream, errCodeRejected, "no membership plane") != nil {
					return
				}
				continue
			}
			reply := getFrame()
			out, aerr := s.cfg.Membership.HandleAccounting(peer, *buf, (*reply)[:0])
			putFrame(buf)
			if aerr != nil {
				putFrame(reply)
				s.cfg.Logf("nettrans: %s: accounting: %v", nc.RemoteAddr(), aerr)
				if fc.writeErrFrame(h.stream, errCodeRejected, aerr.Error()) != nil {
					return
				}
				continue
			}
			*reply = out
			werr := fc.writeFrame(frameAccounting, h.stream, out)
			putFrame(reply)
			if werr != nil {
				return
			}
		case frameView:
			putFrame(buf)
			if s.cfg.Membership == nil {
				if fc.writeErrFrame(h.stream, errCodeRejected, "no membership plane") != nil {
					return
				}
				continue
			}
			snap, merr := s.cfg.Membership.marshalSnapshot()
			if merr != nil {
				if fc.writeErrFrame(h.stream, errCodeRejected, merr.Error()) != nil {
					return
				}
				continue
			}
			if fc.writeFrame(frameView, h.stream, snap) != nil {
				return
			}
		case frameGoaway, frameHello:
			putFrame(buf) // tolerated mid-stream; nothing to do
		default:
			// resp/answer/err frames travel server -> client only; receiving
			// one is a protocol violation, so the connection is cut rather
			// than risking desynchronized framing.
			putFrame(buf)
			s.cfg.Logf("nettrans: %s: unexpected frame type %d", nc.RemoteAddr(), h.typ)
			return
		}
	}
}

// handleData serves one conduit exchange: decode, deliver, respond. It owns
// buf and releases it. Any response-write failure closes the connection (a
// failed flush already has; this covers a response that could not even be
// queued), so a peer that stopped reading cannot keep feeding us work whose
// answers all silently vanish.
func (s *Server) handleData(fc *frameConn, h header, buf *[]byte) {
	defer putFrame(buf)
	nowNano, from, to, record, err := decodeDataPayload(*buf)
	if err != nil {
		if fc.writeErrFrame(h.stream, errCodeRejected, fmt.Sprintf("bad data frame: %v", err)) != nil {
			fc.Close()
		}
		return
	}
	resp, injected, err := s.cfg.Handler.Deliver(string(from), string(to), record, time.Unix(0, nowNano))
	if err != nil {
		code := byte(errCodeRejected)
		if errors.Is(err, core.ErrRelayUnavailable) {
			code = errCodeUnavailable
		}
		if fc.writeErrFrame(h.stream, code, err.Error()) != nil {
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
	if fc.writeFrame(frameResp, h.stream, *meta, resp) != nil {
		fc.Close()
	}
	putFrame(meta)
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
