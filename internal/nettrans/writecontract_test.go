package nettrans

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// The write contract: writeFrame returns when the frame is queued, so a
// writer that is not the flush leader never hears that its frame was lost —
// a failed flush must close the connection, and the read side, where every
// owner of a frameConn tears down, does the telling.

var errPeerDied = errors.New("test: peer died mid-flush")

// cutConn is a connection whose write direction the test can kill while its
// read direction stays silent and open — a peer that died without a FIN, so
// nothing but the local socket close can end a read. With hold set, writes
// wait for the cut instead of passing through: the flush in progress is then
// the one that fails.
type cutConn struct {
	net.Conn
	hold   bool
	cut    chan struct{}
	closed atomic.Bool
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.hold {
		<-c.cut
	}
	select {
	case <-c.cut:
		return 0, errPeerDied
	default:
		return c.Conn.Write(p)
	}
}

func (c *cutConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestFlushFailureClosesConnection: frames queued behind a flush that fails
// are lost without their writers hearing of it, so the leader closes the
// socket; later writers get the sticky error.
func TestFlushFailureClosesConnection(t *testing.T) {
	_, local := net.Pipe()
	cc := &cutConn{Conn: local, hold: true, cut: make(chan struct{})}
	var stats WriteStats
	fc := newFrameConn(cc, DefaultMaxFrame, writeOptions{timeout: -1, stats: &stats})

	leader := make(chan error, 1)
	go func() { leader <- fc.writeFrame(frameData, 1, []byte("leader")) }()
	for stats.Snapshot().Flushes == 0 {
		time.Sleep(time.Millisecond)
	}
	for stream := uint64(2); stream <= 4; stream++ {
		if err := fc.writeFrame(frameData, stream, []byte("follower")); err != nil {
			t.Fatalf("queueing behind a flush in progress: %v", err)
		}
	}
	if cc.closed.Load() {
		t.Fatal("connection closed before any flush failed")
	}
	close(cc.cut)
	if err := <-leader; !errors.Is(err, errPeerDied) {
		t.Fatalf("leader err = %v, want the flush error", err)
	}
	if !cc.closed.Load() {
		t.Fatal("failed flush left the socket open: the followers' frames vanished silently")
	}
	if _, err := local.Read(make([]byte, 1)); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("read on the poisoned connection: %v, want closed", err)
	}
	if err := fc.writeFrame(frameData, 5, []byte("late")); !errors.Is(err, errPeerDied) {
		t.Fatalf("write after the failure: %v, want the sticky flush error", err)
	}
}

// TestPoolFlushFailureFailsFollowers: the peer dies while one RoundTrip is
// flushing and five more have queued their frames and are waiting for
// answers. The leader reports the write error; every follower fails with
// ErrConnClosed at once — not after RequestTimeout — because the leader
// closed the socket under the read loop; and the next RoundTrip re-dials.
func TestPoolFlushFailureFailsFollowers(t *testing.T) {
	srv := startEchoServer(t, ServerConfig{})
	addr := srv.Addr().String()
	p := NewPool(PoolConfig{RequestTimeout: time.Minute})
	defer p.Close()

	// Put a connection to a silent peer where the pool keeps addr's.
	_, local := net.Pipe()
	cc := &cutConn{Conn: local, hold: true, cut: make(chan struct{})}
	pc := p.adopt(newFrameConn(cc, p.cfg.MaxFrame, writeOptions{timeout: -1, stats: &p.wstats}), addr)
	p.peers[addr] = &peerState{conn: pc, everConnected: true}

	const inFlight = 6
	errs := make(chan error, inFlight)
	for i := 0; i < inFlight; i++ {
		go func() {
			_, buf, err := echoRoundTrip(t, p, addr, "x")
			if err == nil {
				putFrame(buf)
			}
			errs <- err
		}()
	}
	// A frame is counted when it is queued, which for the leader is before
	// it has entered the flush (it may still be in its linger): wait for the
	// flush itself, then see that it stays the only one while it is blocked.
	for deadline := time.Now().Add(5 * time.Second); p.WriteStats().Frames < inFlight || p.WriteStats().Flushes < 1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d frames queued in %d flushes", p.WriteStats().Frames, inFlight, p.WriteStats().Flushes)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if got := p.WriteStats().Flushes; got != 1 {
		t.Fatalf("%d flushes with the first one blocked, want 1", got)
	}

	cut := time.Now()
	close(cc.cut)
	var writeErrs, connClosed int
	for i := 0; i < inFlight; i++ {
		select {
		case err := <-errs:
			switch {
			case errors.Is(err, errPeerDied):
				writeErrs++
			case errors.Is(err, ErrConnClosed):
				connClosed++
			default:
				t.Errorf("round trip err = %v, want the write error or ErrConnClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round trip %d still waiting %v after the flush failed", i, time.Since(cut))
		}
	}
	if writeErrs != 1 || connClosed != inFlight-1 {
		t.Fatalf("%d write errors and %d ErrConnClosed, want 1 (the leader) and %d (the followers)", writeErrs, connClosed, inFlight-1)
	}
	if took := time.Since(cut); took > time.Second {
		t.Fatalf("followers took %v to fail, want milliseconds", took)
	}

	_, buf, err := echoRoundTrip(t, p, addr, "after")
	if err != nil {
		t.Fatalf("round trip after the failure: %v (no re-dial?)", err)
	}
	putFrame(buf)
}

// cutListener wraps every accepted connection in a cutConn sharing one cut.
type cutListener struct {
	net.Listener
	cut   chan struct{}
	conns chan *cutConn // buffered: one per expected connection
}

func (l *cutListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &cutConn{Conn: nc, cut: l.cut}
	l.conns <- cc
	return cc, nil
}

// TestServerResponseFlushFailureTearsDown: the server side of the contract.
// When the flush of a response fails — the client's socket still open and
// silent — the server closes the connection, its read loop ends, and the
// sessions attested on the connection are released; the client sees the
// connection go, not a request timeout, and discards its half.
func TestServerResponseFlushFailureTearsDown(t *testing.T) {
	closes := countCloses(t)
	ln := &cutListener{cut: make(chan struct{}), conns: make(chan *cutConn, 1)}
	w := newHostedWorld(t, "flush-failure-secret")
	relay := w.host("relay", nil, hostedOpts{wrapListener: func(inner net.Listener) net.Listener {
		ln.Listener = inner
		return ln
	}})
	c := w.host("client", []string{"relay"}, hostedOpts{})
	c.search(t, "before the cut")
	cc := <-ln.conns

	close(ln.cut)
	const inFlight = 4
	errs := make(chan error, inFlight)
	start := time.Now()
	for i := 0; i < inFlight; i++ {
		go func() {
			_, err := c.node.Search("response that cannot be flushed", time.Now())
			errs <- err
		}()
	}
	for i := 0; i < inFlight; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("forward answered over a dead write path")
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("forward %d still waiting %v after the server's flush failed", i, time.Since(start))
		}
	}
	if !cc.closed.Load() {
		t.Fatal("server kept the connection after a failed response flush")
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		relay.srv.mu.Lock()
		live, owned := len(relay.srv.conns), len(relay.srv.sessions)
		relay.srv.mu.Unlock()
		if live == 0 && owned == 0 && closes.Load() >= 2 {
			break // connection unregistered, both session halves closed
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d connections registered owning %d sessions, %d session halves closed; want 0, 0 and 2", live, owned, closes.Load())
		}
	}
}
