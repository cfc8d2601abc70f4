package nettrans

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cyclosa/internal/workers"
)

// Pool errors. Everything a Pool returns signals the peer is unreachable in
// some way; TCPConduit wraps them as core.ErrRelayUnavailable so the retry
// layer treats a dead TCP peer exactly like a dead simulated one.
var (
	ErrPoolClosed = errors.New("nettrans: pool closed")
	// ErrPeerBackoff fails fast while a peer's reconnect backoff window is
	// open, instead of re-dialing a dead address on every request.
	ErrPeerBackoff = errors.New("nettrans: peer in reconnect backoff")
	// ErrPipeFull reports pending-stream backpressure: the connection already
	// carries MaxPending unanswered streams and a slot did not free up within
	// the request timeout.
	ErrPipeFull = errors.New("nettrans: connection pipe full")
	// ErrRequestTimeout reports an exchange the peer never answered.
	ErrRequestTimeout = errors.New("nettrans: request timed out")
	// ErrConnClosed reports an exchange cut by connection teardown.
	ErrConnClosed = errors.New("nettrans: connection closed")
)

// PoolConfig configures a Pool.
type PoolConfig struct {
	// ID is the identity announced in the hello preamble.
	ID string
	// MaxFrame bounds a frame payload (default DefaultMaxFrame).
	MaxFrame int
	// MaxPending bounds unanswered streams per connection (default 128).
	MaxPending int
	// DialTimeout bounds one dial + hello exchange (default 5 s).
	DialTimeout time.Duration
	// RequestTimeout bounds one round trip (default 15 s).
	RequestTimeout time.Duration
	// IdleTimeout reaps connections with no traffic for this long (default
	// 1 minute; negative disables reaping).
	IdleTimeout time.Duration
	// BackoffBase and BackoffMax shape the reconnect backoff: after the nth
	// consecutive dial failure the peer is down for min(Base<<n, Max)
	// (defaults 50 ms and 5 s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (cfg *PoolConfig) applyDefaults() {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 128
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = time.Minute
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 50 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
}

// Pool maintains one multiplexed connection per peer address: dial on
// demand, reconnect with exponential backoff, reap idle connections, and
// bound the number of in-flight streams per pipe.
type Pool struct {
	cfg    PoolConfig
	wstats WriteStats // aggregated across all of the pool's connections

	mu    sync.Mutex
	peers map[string]*peerState
	// conns is every connection whose read loop is running: the peers'
	// current ones plus predecessors still draining after a goaway. The
	// janitor sweeps them all; Close closes them all.
	conns  map[*poolConn]struct{}
	closed bool

	janitorOnce sync.Once
	janitorStop chan struct{}
}

// peerState is the per-address dial gate: at most one live connection, plus
// the failure bookkeeping driving backoff.
type peerState struct {
	mu        sync.Mutex
	conn      *poolConn
	fails     int
	downUntil time.Time
	// everConnected marks that at least one dial to this peer succeeded,
	// so later dials count as reconnects in telemetry.
	everConnected bool
}

// callResult carries one response frame (or failure) to its waiter. buf is
// pooled; the waiter releases it.
type callResult struct {
	hdr header
	buf *[]byte
	err error
}

// poolConn is one live multiplexed connection.
type poolConn struct {
	fc   *frameConn
	addr string

	st       *shardedStreamTable
	draining atomic.Bool // peer sent goaway: no new streams

	sem     chan struct{} // MaxPending backpressure
	lastUse atomic.Int64  // unix nanos of the last exchange activity

	// results holds the result channels of finished blocking round trips
	// for the next ones to reuse; a sem slot per channel in use keeps it
	// from ever being full. A channel goes back only empty (see abandon).
	results chan chan callResult

	// timeouts counts consecutive request timeouts (reset by any answered
	// exchange). A socket whose response direction silently died never
	// errors the read loop; without this, such a pipe would blackhole its
	// peer forever — conn() retires it once the count passes the threshold.
	timeouts atomic.Int32

	// respBufs holds, per (client, relay) pair, the buffer a blocking
	// Deliver answered on this connection copies its response record into
	// (see TCPConduit.Deliver). They go when the connection does.
	respMu   sync.RWMutex
	respBufs map[pairKey]*pairBuf
}

// maxConsecutiveTimeouts retires a connection that stopped answering.
const maxConsecutiveTimeouts = 3

// NewPool builds a pool.
func NewPool(cfg PoolConfig) *Pool {
	cfg.applyDefaults()
	return &Pool{
		cfg:         cfg,
		peers:       make(map[string]*peerState),
		conns:       make(map[*poolConn]struct{}),
		janitorStop: make(chan struct{}),
	}
}

// WriteStats snapshots the pool's aggregated write-path counters.
func (p *Pool) WriteStats() WriteStatsSnapshot { return p.wstats.Snapshot() }

// RoundTrip sends one frame (payload = concatenation of parts) on the
// peer's connection and waits for the response frame on the same stream.
// The returned buffer is pooled and owned by the caller until putFrame.
func (p *Pool) RoundTrip(addr string, typ frameType, parts ...[]byte) (header, *[]byte, error) {
	_, h, buf, err := p.roundTrip(addr, typ, parts...)
	return h, buf, err
}

// roundTrip is RoundTrip, also naming the connection that carried the
// exchange.
func (p *Pool) roundTrip(addr string, typ frameType, parts ...[]byte) (*poolConn, header, *[]byte, error) {
	pc, stream, ch, err := p.claimStream(addr)
	if err != nil {
		return nil, header{}, nil, err
	}
	defer func() { <-pc.sem }()
	pc.lastUse.Store(time.Now().UnixNano())

	if err := pc.fc.writeFrame(typ, stream, parts...); err != nil {
		// Only the flush leader (or a writer the poisoned connection turned
		// away) sees the write error; the streams whose frames were queued
		// behind it learn that the connection is gone.
		pc.abandon(stream, ch)
		p.connFailed(addr, pc, fmt.Errorf("%w: %s: write: %v", ErrConnClosed, addr, err))
		return nil, header{}, nil, fmt.Errorf("nettrans: write to %s: %w", addr, err)
	}

	t := workers.GetTimer(p.cfg.RequestTimeout)
	defer workers.PutTimer(t)
	select {
	case res := <-ch:
		pc.putResultChan(ch)
		pc.lastUse.Store(time.Now().UnixNano())
		if res.err == nil {
			pc.timeouts.Store(0)
		}
		return pc, res.hdr, res.buf, res.err
	case <-t.C:
		// The stream may still be answered later; abandon it so the reader
		// drops the late response instead of blocking on a dead waiter.
		if pc.abandon(stream, ch) {
			pc.timeouts.Add(1)
		}
		return nil, header{}, nil, fmt.Errorf("%w: %s", ErrRequestTimeout, addr)
	}
}

// claimStream picks the peer's connection (dialing or retiring as needed),
// acquires a pending-stream slot and registers a stream. The register loop
// absorbs the race where the janitor (or a teardown) kills the connection
// between lookup and registration — the retry re-dials instead of charging
// a spurious unavailability against a healthy peer.
func (p *Pool) claimStream(addr string) (*poolConn, uint64, chan callResult, error) {
	for attempt := 0; ; attempt++ {
		pc, err := p.conn(addr)
		if err != nil {
			return nil, 0, nil, err
		}

		// Backpressure: a full pipe blocks up to the request timeout, then
		// reports saturation rather than queueing unboundedly.
		select {
		case pc.sem <- struct{}{}:
		default:
			t := workers.GetTimer(p.cfg.RequestTimeout)
			select {
			case pc.sem <- struct{}{}:
				workers.PutTimer(t)
			case <-t.C:
				workers.PutTimer(t)
				return nil, 0, nil, fmt.Errorf("%w: %s", ErrPipeFull, addr)
			}
		}

		ch := pc.getResultChan()
		stream, err := pc.st.register(waiter{ch: ch})
		if err == nil {
			return pc, stream, ch, nil
		}
		pc.putResultChan(ch)
		<-pc.sem
		if attempt > 0 {
			return nil, 0, nil, err
		}
	}
}

// conn returns the peer's live connection, dialing if needed.
func (p *Pool) conn(addr string) (*poolConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	ps := p.peers[addr]
	if ps == nil {
		ps = &peerState{}
		p.peers[addr] = ps
	}
	p.mu.Unlock()
	p.janitorOnce.Do(func() { go p.janitor() })

	ps.mu.Lock()
	defer ps.mu.Unlock()
	if pc := ps.conn; pc != nil && pc.alive() && !pc.draining.Load() {
		if pc.timeouts.Load() < maxConsecutiveTimeouts {
			return pc, nil
		}
		// The pipe stopped answering without a socket error (asymmetric
		// failure, stuck peer): retire it — failing its pending streams
		// fast — and fall through to a fresh dial.
		pc.close(fmt.Errorf("%w: %s: %d consecutive timeouts", ErrConnClosed, addr, maxConsecutiveTimeouts))
		mConnsRetired.Inc()
		ps.conn = nil
	}
	if until := ps.downUntil; time.Now().Before(until) {
		return nil, fmt.Errorf("%w: %s for %s", ErrPeerBackoff, addr, time.Until(until).Round(time.Millisecond))
	}
	pc, err := p.dial(addr)
	if err != nil {
		ps.fails++
		backoff := p.cfg.BackoffBase << min(uint(ps.fails-1), 16)
		if backoff > p.cfg.BackoffMax || backoff <= 0 {
			backoff = p.cfg.BackoffMax
		}
		ps.downUntil = time.Now().Add(backoff)
		return nil, err
	}
	ps.fails = 0
	ps.downUntil = time.Time{}
	if ps.everConnected {
		mReconnects.Inc()
	}
	ps.everConnected = true
	// A draining predecessor is left alive to finish its pending streams
	// (the goaway sender closes it when the drain ends); a dead one has
	// already failed them.
	ps.conn = pc
	return pc, nil
}

// dial opens, preambles and starts the reader for one connection.
func (p *Pool) dial(addr string) (*poolConn, error) {
	nc, err := net.DialTimeout("tcp", addr, p.cfg.DialTimeout)
	if err != nil {
		mDialError.Inc()
		return nil, fmt.Errorf("nettrans: dial %s: %w", addr, err)
	}
	fc := newFrameConn(nc, p.cfg.MaxFrame, writeOptions{stats: &p.wstats})
	id := p.cfg.ID
	if id == "" {
		id = nc.LocalAddr().String()
	}
	if err := fc.sendHello(id); err != nil {
		nc.Close()
		mDialError.Inc()
		return nil, fmt.Errorf("nettrans: hello to %s: %w", addr, err)
	}
	if _, err := fc.expectHello(p.cfg.DialTimeout); err != nil {
		nc.Close()
		mDialError.Inc()
		return nil, fmt.Errorf("nettrans: hello from %s: %w", addr, err)
	}
	mDialOK.Inc()
	return p.adopt(fc, addr), nil
}

// adopt wraps a connection that has exchanged hellos and starts its reader.
func (p *Pool) adopt(fc *frameConn, addr string) *poolConn {
	pc := &poolConn{
		fc:   fc,
		addr: addr,
		st:   newShardedStreamTable(defaultStreamShards()),
		sem:  make(chan struct{}, p.cfg.MaxPending),

		results: make(chan chan callResult, p.cfg.MaxPending),
	}
	pc.lastUse.Store(time.Now().UnixNano())
	p.mu.Lock()
	p.conns[pc] = struct{}{}
	closed := p.closed
	p.mu.Unlock()
	go func() {
		pc.readLoop() // returns with the connection closed and nothing pending
		p.mu.Lock()
		delete(p.conns, pc)
		p.mu.Unlock()
	}()
	if closed {
		pc.close(ErrPoolClosed) // dialled while Close ran: Close did not see it
	}
	return pc
}

// connFailed tears down a connection after a transport error so the next
// round trip re-dials.
func (p *Pool) connFailed(addr string, pc *poolConn, err error) {
	pc.close(err)
	p.mu.Lock()
	ps := p.peers[addr]
	p.mu.Unlock()
	if ps != nil {
		ps.mu.Lock()
		if ps.conn == pc {
			ps.conn = nil
		}
		ps.mu.Unlock()
	}
}

// janitor reaps idle connections and fails the submitted records nobody
// answered within RequestTimeout (a blocked RoundTrip times itself out; a
// submitted record has no goroutine or timer of its own, so this sweep is
// its clock: it completes between one and one and a quarter RequestTimeout
// after it was submitted).
func (p *Pool) janitor() {
	interval := p.cfg.RequestTimeout / 4
	if idle := p.cfg.IdleTimeout / 2; idle > 0 && idle < interval {
		interval = idle
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	var conns []*poolConn
	var due []*asyncCall
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.janitorStop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		cutoff := now.Add(-p.cfg.IdleTimeout).UnixNano()
		p.mu.Lock()
		peers := make([]*peerState, 0, len(p.peers))
		for _, ps := range p.peers {
			peers = append(peers, ps)
		}
		conns = conns[:0]
		for pc := range p.conns {
			conns = append(conns, pc)
		}
		p.mu.Unlock()
		for _, ps := range peers {
			ps.mu.Lock()
			if pc := ps.conn; pc != nil && p.cfg.IdleTimeout > 0 && pc.alive() && pc.idle() && pc.lastUse.Load() < cutoff {
				pc.close(ErrConnClosed)
				ps.conn = nil
			}
			ps.mu.Unlock()
		}
		for _, pc := range conns {
			due = pc.st.expire(now.UnixNano(), due[:0])
			for _, a := range due {
				pc.timeouts.Add(1)
				a.complete(callResult{err: fmt.Errorf("%w: %s", ErrRequestTimeout, pc.addr)})
			}
		}
		clear(conns) // the scratch must not keep a reaped connection alive
	}
}

// Close tears down every connection; subsequent round trips fail.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	peers := make([]*peerState, 0, len(p.peers))
	for _, ps := range p.peers {
		peers = append(peers, ps)
	}
	conns := make([]*poolConn, 0, len(p.conns))
	for pc := range p.conns {
		conns = append(conns, pc)
	}
	p.mu.Unlock()
	close(p.janitorStop)
	for _, ps := range peers {
		ps.mu.Lock()
		ps.conn = nil
		ps.mu.Unlock()
	}
	for _, pc := range conns {
		pc.close(ErrPoolClosed)
	}
	return nil
}

// --- poolConn ---------------------------------------------------------------

func (pc *poolConn) alive() bool { return pc.st.alive() }

// idle reports whether the connection has no pending streams.
func (pc *poolConn) idle() bool { return pc.st.idle() }

// close marks the connection dead and fails every pending stream.
func (pc *poolConn) close(err error) {
	if pc.st.close(err) {
		pc.fc.Close()
	}
}

// getResultChan returns an empty channel with room for one result, so a
// delivery never blocks the reader.
func (pc *poolConn) getResultChan() chan callResult {
	select {
	case ch := <-pc.results:
		return ch
	default:
		return make(chan callResult, 1)
	}
}

// putResultChan keeps an empty result channel for the next round trip.
func (pc *poolConn) putResultChan(ch chan callResult) {
	select {
	case pc.results <- ch:
	default:
	}
}

// abandon gives up a blocking round trip's stream and returns its result
// channel, empty, to the connection. It reports whether the stream was
// still pending; if not, the reader or the teardown claimed it first and its
// result is in ch or on the way, and abandon waits for it and drops it.
func (pc *poolConn) abandon(stream uint64, ch chan callResult) bool {
	_, pending := pc.st.unregister(stream)
	if !pending {
		if res := <-ch; res.buf != nil {
			putFrame(res.buf)
		}
	}
	pc.putResultChan(ch)
	return pending
}

// readLoop routes inbound frames to their pending streams.
func (pc *poolConn) readLoop() {
	for {
		h, buf, err := pc.fc.readFrame(0)
		if err != nil {
			pc.close(fmt.Errorf("%w: %s: %v", ErrConnClosed, pc.addr, err))
			return
		}
		switch h.typ {
		case frameResp, frameErr, frameAttest, frameGossip, frameView, frameAccounting:
			if !pc.st.deliver(h.stream, callResult{hdr: h, buf: buf}) {
				putFrame(buf) // waiter timed out: drop the late answer
			}
		case frameGoaway:
			// Finish what is pending, open no new streams on this pipe.
			pc.draining.Store(true)
			putFrame(buf)
		case frameHello:
			putFrame(buf)
		default:
			putFrame(buf)
			pc.close(fmt.Errorf("%w: %s: unexpected frame type %d", ErrConnClosed, pc.addr, h.typ))
			return
		}
	}
}
