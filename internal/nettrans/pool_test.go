package nettrans

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func startEchoServer(t *testing.T, cfg ServerConfig) *Server {
	t.Helper()
	if cfg.Handler == nil {
		cfg.Handler = echoConduit{}
	}
	srv := NewServer(cfg)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func echoRoundTrip(t *testing.T, p *Pool, addr string, payload string) (header, *[]byte, error) {
	t.Helper()
	meta := appendDataMeta(nil, 1, "a", "b", len(payload))
	return p.RoundTrip(addr, frameData, meta, []byte(payload))
}

// TestPoolIdleReap: the janitor closes a connection with no traffic, and
// the next exchange transparently re-dials.
func TestPoolIdleReap(t *testing.T) {
	srv := startEchoServer(t, ServerConfig{})
	addr := srv.Addr().String()
	p := NewPool(PoolConfig{IdleTimeout: 40 * time.Millisecond})
	defer p.Close()

	_, buf, err := echoRoundTrip(t, p, addr, "one")
	if err != nil {
		t.Fatal(err)
	}
	putFrame(buf)

	deadline := time.Now().Add(2 * time.Second)
	for {
		p.mu.Lock()
		ps := p.peers[addr]
		p.mu.Unlock()
		ps.mu.Lock()
		reaped := ps.conn == nil || !ps.conn.alive()
		ps.mu.Unlock()
		if reaped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection never reaped")
		}
		time.Sleep(10 * time.Millisecond)
	}

	_, buf, err = echoRoundTrip(t, p, addr, "two")
	if err != nil {
		t.Fatalf("exchange after reap: %v", err)
	}
	putFrame(buf)
}

// TestPoolBackpressurePipeFull: with MaxPending 1 and a slow handler, a
// second concurrent exchange reports pipe saturation instead of queueing
// without bound.
func TestPoolBackpressurePipeFull(t *testing.T) {
	srv := startEchoServer(t, ServerConfig{Handler: slowConduit{d: 600 * time.Millisecond}})
	addr := srv.Addr().String()
	p := NewPool(PoolConfig{MaxPending: 1, RequestTimeout: 150 * time.Millisecond})
	defer p.Close()

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i > 0 {
				time.Sleep(30 * time.Millisecond) // let the first claim the slot
			}
			_, buf, err := echoRoundTrip(t, p, addr, "x")
			if buf != nil {
				putFrame(buf)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	// The slot holder times out and frees the slot for at most one waiter;
	// the other waiter must observe saturation.
	saturated := 0
	for _, err := range errs[1:] {
		if errors.Is(err, ErrPipeFull) {
			saturated++
		}
	}
	if saturated == 0 {
		t.Fatalf("no waiter observed pipe saturation: %v", errs)
	}
}

// TestPoolRequestTimeout: an exchange the handler cannot answer in time
// fails with ErrRequestTimeout, and the late answer is discarded without
// poisoning the next exchange.
func TestPoolRequestTimeout(t *testing.T) {
	srv := startEchoServer(t, ServerConfig{Handler: slowConduit{d: 300 * time.Millisecond}})
	addr := srv.Addr().String()
	p := NewPool(PoolConfig{RequestTimeout: 50 * time.Millisecond})
	defer p.Close()

	_, buf, err := echoRoundTrip(t, p, addr, "slow")
	if buf != nil {
		putFrame(buf)
	}
	if !errors.Is(err, ErrRequestTimeout) {
		t.Fatalf("err = %v, want ErrRequestTimeout", err)
	}

	// The stream's late answer must be dropped, not delivered to the next
	// caller's stream.
	time.Sleep(400 * time.Millisecond)
	p2 := NewPool(PoolConfig{RequestTimeout: 2 * time.Second})
	defer p2.Close()
	_, buf, err = echoRoundTrip(t, p2, addr, "fresh")
	if err != nil {
		t.Fatal(err)
	}
	defer putFrame(buf)
	if _, rec, err := decodeRespPayload(*buf); err != nil || string(rec) != "slow:fresh" {
		t.Fatalf("fresh exchange got rec=%q err=%v", rec, err)
	}
}

// TestPoolRetiresUnansweringConn: a socket whose responses stopped coming
// (no read error — asymmetric failure) is retired after
// maxConsecutiveTimeouts and the next exchange re-dials, instead of
// blackholing the peer forever.
func TestPoolRetiresUnansweringConn(t *testing.T) {
	srv := startEchoServer(t, ServerConfig{Handler: slowConduit{d: 700 * time.Millisecond}, DrainTimeout: time.Second})
	addr := srv.Addr().String()
	p := NewPool(PoolConfig{RequestTimeout: 40 * time.Millisecond})
	defer p.Close()

	for i := 0; i < maxConsecutiveTimeouts; i++ {
		_, buf, err := echoRoundTrip(t, p, addr, "x")
		if buf != nil {
			putFrame(buf)
		}
		if !errors.Is(err, ErrRequestTimeout) {
			t.Fatalf("exchange %d err = %v, want ErrRequestTimeout", i, err)
		}
	}
	p.mu.Lock()
	ps := p.peers[addr]
	p.mu.Unlock()
	ps.mu.Lock()
	old := ps.conn
	ps.mu.Unlock()

	// The next exchange must run on a freshly dialed connection.
	_, buf, _ := echoRoundTrip(t, p, addr, "y")
	if buf != nil {
		putFrame(buf)
	}
	ps.mu.Lock()
	fresh := ps.conn
	ps.mu.Unlock()
	if fresh == old {
		t.Fatal("unanswering connection was not retired")
	}
	if old.alive() {
		t.Fatal("retired connection left open")
	}
}

// TestPoolClosed: a closed pool fails fast.
func TestPoolClosed(t *testing.T) {
	p := NewPool(PoolConfig{})
	p.Close()
	_, _, err := p.RoundTrip("127.0.0.1:1", frameData, []byte("x"))
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("err = %v, want ErrPoolClosed", err)
	}
}

// TestPoolBackoffResetsAfterSuccess: the dial-failure backoff clears once
// the peer comes back.
func TestPoolBackoffResetsAfterSuccess(t *testing.T) {
	p := NewPool(PoolConfig{DialTimeout: 300 * time.Millisecond, BackoffBase: 30 * time.Millisecond})
	defer p.Close()

	// A dead address fails and opens the backoff window.
	if _, _, err := p.RoundTrip("127.0.0.1:1", frameData, []byte("x")); err == nil {
		t.Fatal("dial to reserved port succeeded")
	}
	if _, _, err := p.RoundTrip("127.0.0.1:1", frameData, []byte("x")); !errors.Is(err, ErrPeerBackoff) {
		t.Fatalf("err = %v, want ErrPeerBackoff", err)
	}

	// A live peer works immediately and stays out of backoff.
	srv := startEchoServer(t, ServerConfig{})
	addr := srv.Addr().String()
	for i := 0; i < 2; i++ {
		_, buf, err := echoRoundTrip(t, p, addr, "ok")
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		putFrame(buf)
	}
}

// pooledResults takes the result channels pc keeps for reuse, failing the
// test if one of them holds a result, and puts them back.
func pooledResults(t *testing.T, pc *poolConn) int {
	t.Helper()
	var chans []chan callResult
	for len(pc.results) > 0 {
		ch := <-pc.results
		if len(ch) != 0 {
			t.Fatalf("a pooled result channel holds %d results", len(ch))
		}
		chans = append(chans, ch)
	}
	for _, ch := range chans {
		pc.results <- ch
	}
	return len(chans)
}

// peerConn returns the pool's current connection to addr.
func peerConn(p *Pool, addr string) *poolConn {
	p.mu.Lock()
	ps := p.peers[addr]
	p.mu.Unlock()
	if ps == nil {
		return nil
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.conn
}

// TestPoolResultChanEmptyOnEveryExit: a blocking round trip hands its result
// channel back to the connection on every exit — answered, timed out, timed
// out with the answer already claimed, cut by teardown — and the channel is
// empty when it goes back, so no round trip can read another's result.
func TestPoolResultChanEmptyOnEveryExit(t *testing.T) {
	t.Run("answered", func(t *testing.T) {
		srv := startEchoServer(t, ServerConfig{})
		p := NewPool(PoolConfig{})
		defer p.Close()
		for i := 0; i < 3; i++ {
			_, buf, err := echoRoundTrip(t, p, srv.Addr().String(), "x")
			if err != nil {
				t.Fatal(err)
			}
			putFrame(buf)
		}
		if n := pooledResults(t, peerConn(p, srv.Addr().String())); n != 1 {
			t.Fatalf("%d channels pooled after 3 sequential round trips, want 1 (reused)", n)
		}
	})
	t.Run("timed out", func(t *testing.T) {
		srv := startEchoServer(t, ServerConfig{Handler: slowConduit{d: 200 * time.Millisecond}})
		addr := srv.Addr().String()
		p := NewPool(PoolConfig{RequestTimeout: 30 * time.Millisecond})
		defer p.Close()
		if _, _, err := echoRoundTrip(t, p, addr, "x"); !errors.Is(err, ErrRequestTimeout) {
			t.Fatalf("err = %v, want ErrRequestTimeout", err)
		}
		pc := peerConn(p, addr)
		if n := pooledResults(t, pc); n != 1 {
			t.Fatalf("%d channels pooled after a timeout, want 1", n)
		}
		// The late answer arrives and is dropped by the reader, not posted
		// into the pooled channel.
		time.Sleep(300 * time.Millisecond)
		pooledResults(t, pc)
	})
	t.Run("answer claimed before the timeout", func(t *testing.T) {
		srv := startEchoServer(t, ServerConfig{})
		addr := srv.Addr().String()
		p := NewPool(PoolConfig{})
		defer p.Close()
		_, buf, err := echoRoundTrip(t, p, addr, "x") // dial
		if err != nil {
			t.Fatal(err)
		}
		putFrame(buf)
		pc := peerConn(p, addr)
		ch := pc.getResultChan()
		stream, err := pc.st.register(waiter{ch: ch})
		if err != nil {
			t.Fatal(err)
		}
		// The reader claims the stream and posts its answer just as the
		// waiter's timer fires: abandon must find it and drop it.
		if !pc.st.deliver(stream, callResult{buf: getFrame()}) {
			t.Fatal("stream not pending")
		}
		if pc.abandon(stream, ch) {
			t.Fatal("abandon found the claimed stream pending")
		}
		if n := pooledResults(t, pc); n != 1 {
			t.Fatalf("%d channels pooled after abandon, want 1", n)
		}
	})
	t.Run("teardown", func(t *testing.T) {
		srv := startEchoServer(t, ServerConfig{Handler: slowConduit{d: 2 * time.Second}, DrainTimeout: 10 * time.Millisecond})
		addr := srv.Addr().String()
		p := NewPool(PoolConfig{RequestTimeout: 10 * time.Second})
		defer p.Close()
		done := make(chan error, 1)
		go func() {
			_, _, err := echoRoundTrip(t, p, addr, "x")
			done <- err
		}()
		var pc *poolConn
		for deadline := time.Now().Add(5 * time.Second); pc == nil || pc.idle(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("round trip never registered its stream")
			}
			pc = peerConn(p, addr)
		}
		pc.close(ErrConnClosed)
		if err := <-done; !errors.Is(err, ErrConnClosed) {
			t.Fatalf("err = %v, want ErrConnClosed", err)
		}
		if n := pooledResults(t, pc); n != 1 {
			t.Fatalf("%d channels pooled after teardown, want 1", n)
		}
	})
}
