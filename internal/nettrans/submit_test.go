package nettrans

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/transport"
)

// fakePeer is the far end of a pooled connection, for the submit seam's
// tests: it shakes hands, then either echoes every data frame's record back
// in a resp frame or stays silent. kill cuts every connection it holds.
type fakePeer struct {
	ln      net.Listener
	answer  atomic.Bool
	accepts atomic.Int32
	frames  atomic.Int32 // data frames read

	mu    sync.Mutex
	conns []net.Conn
}

func startFakePeer(t *testing.T, answer bool) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fp := &fakePeer{ln: ln}
	fp.answer.Store(answer)
	t.Cleanup(func() {
		ln.Close()
		fp.kill()
	})
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			fp.accepts.Add(1)
			fp.mu.Lock()
			fp.conns = append(fp.conns, nc)
			fp.mu.Unlock()
			go fp.serve(nc)
		}
	}()
	return fp
}

func (fp *fakePeer) addr() string { return fp.ln.Addr().String() }

func (fp *fakePeer) serve(nc net.Conn) {
	fc := newFrameConn(nc, DefaultMaxFrame, writeOptions{})
	if _, err := fc.expectHello(5 * time.Second); err != nil {
		return
	}
	if fc.sendHello("fake-peer") != nil {
		return
	}
	for {
		h, buf, err := fc.readFrame(0)
		if err != nil {
			return
		}
		if h.typ == frameData {
			fp.frames.Add(1)
			if _, _, _, record, err := decodeDataPayload(*buf); err == nil && fp.answer.Load() {
				meta := appendRespMeta(nil, 0, len(record))
				fc.writeFrame(frameResp, h.stream, meta, record) //nolint:errcheck // a cut connection ends the read above
			}
		}
		putFrame(buf)
	}
}

func (fp *fakePeer) kill() {
	fp.mu.Lock()
	defer fp.mu.Unlock()
	for _, nc := range fp.conns {
		nc.Close()
	}
	fp.conns = nil
}

// submitTo builds a conduit that resolves every relay id but "ghost" to addr.
func submitTo(t *testing.T, addr string, cfg PoolConfig) *TCPConduit {
	t.Helper()
	tcp := NewTCPConduit(ConduitConfig{
		Resolve: func(id string) (string, bool) {
			return addr, id != "ghost"
		},
		PoolConfig: cfg,
	})
	t.Cleanup(func() { tcp.Close() })
	return tcp
}

// records is a batch of n records for relays r0..r(n-1), tagged 0..n-1.
func records(n int) []transport.Submission {
	batch := make([]transport.Submission, n)
	for i := range batch {
		batch[i] = transport.Submission{To: fmt.Sprintf("r%d", i), Payload: []byte(fmt.Sprintf("record-%d", i)), Tag: i}
	}
	return batch
}

// collect receives n completions and fails the test if they do not all
// arrive within the bound or if a tag completes twice. It hands their
// buffers back.
func collect(t *testing.T, tcp *TCPConduit, done chan transport.Completion, n int, within time.Duration) map[int]transport.Completion {
	t.Helper()
	got := make(map[int]transport.Completion, n)
	deadline := time.After(within)
	for len(got) < n {
		select {
		case c := <-done:
			if _, dup := got[c.Tag]; dup {
				t.Fatalf("record %d completed twice", c.Tag)
			}
			if c.Err == nil {
				c.Resp = append([]byte(nil), c.Resp...)
			}
			tcp.Release(c)
			got[c.Tag] = c
		case <-deadline:
			t.Fatalf("%d of %d completions after %v", len(got), n, within)
		}
	}
	return got
}

// assertNoMore fails if another completion shows up: exactly once means not
// twice either.
func assertNoMore(t *testing.T, done chan transport.Completion) {
	t.Helper()
	select {
	case c := <-done:
		t.Fatalf("a completion beyond the batch: %+v", c)
	case <-time.After(50 * time.Millisecond):
	}
}

// liveConn returns the pool's current connection to addr.
func liveConn(p *Pool, addr string) *poolConn {
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

// TestSubmitAnswered: the plain case — every record answered, its response
// in the completion until Release, all on one flush.
func TestSubmitAnswered(t *testing.T) {
	fp := startFakePeer(t, true)
	tcp := submitTo(t, fp.addr(), PoolConfig{})
	if _, err := tcp.pool.conn(fp.addr()); err != nil {
		t.Fatal(err)
	}
	before := tcp.WriteStats()

	done := make(chan transport.Completion, 8)
	tcp.Submit("client", time.Unix(0, 1), records(8), done)
	for tag, c := range collect(t, tcp, done, 8, 5*time.Second) {
		if c.Err != nil {
			t.Fatalf("record %d: %v", tag, c.Err)
		}
		if want := fmt.Sprintf("record-%d", tag); string(c.Resp) != want {
			t.Fatalf("record %d answered %q, want %q", tag, c.Resp, want)
		}
	}
	after := tcp.WriteStats()
	if after.Frames-before.Frames != 8 || after.Flushes-before.Flushes != 1 {
		t.Fatalf("%d frames in %d flushes, want 8 in 1", after.Frames-before.Frames, after.Flushes-before.Flushes)
	}
	if pc := liveConn(tcp.pool, fp.addr()); len(pc.sem) != 0 {
		t.Fatalf("%d pending-stream slots still taken", len(pc.sem))
	}
}

// TestSubmitPeerKilled: the peer dies with k+1 records in flight. Every one
// of them completes as unavailable at once — RequestTimeout is a minute — and
// the next batch re-dials.
func TestSubmitPeerKilled(t *testing.T) {
	fp := startFakePeer(t, false)
	tcp := submitTo(t, fp.addr(), PoolConfig{RequestTimeout: time.Minute})
	done := make(chan transport.Completion, 8)
	tcp.Submit("client", time.Unix(0, 1), records(8), done)
	waitFor(t, "the peer to read the batch", func() bool { return fp.frames.Load() == 8 })
	pc := liveConn(tcp.pool, fp.addr())

	killed := time.Now()
	fp.kill()
	for tag, c := range collect(t, tcp, done, 8, time.Second) {
		if !errors.Is(c.Err, core.ErrRelayUnavailable) || !errors.Is(c.Err, ErrConnClosed) {
			t.Fatalf("record %d: err = %v, want ErrRelayUnavailable wrapping ErrConnClosed", tag, c.Err)
		}
	}
	if took := time.Since(killed); took > time.Second {
		t.Fatalf("completions took %v after the peer died", took)
	}
	assertNoMore(t, done)
	if len(pc.sem) != 0 {
		t.Fatalf("%d pending-stream slots still taken on the dead connection", len(pc.sem))
	}

	fp.answer.Store(true)
	tcp.Submit("client", time.Unix(0, 2), records(2), done)
	for tag, c := range collect(t, tcp, done, 2, 5*time.Second) {
		if c.Err != nil {
			t.Fatalf("record %d after the re-dial: %v", tag, c.Err)
		}
	}
	if got := fp.accepts.Load(); got != 2 {
		t.Fatalf("%d connections accepted, want 2 (the batch after the kill re-dials)", got)
	}
}

// TestSubmitNeverAnswered: a record nobody answers is failed by the janitor's
// sweep — no earlier than RequestTimeout, not much later — each one counts
// as a timeout of the pipe, and the third retires it, as RoundTrip's do.
func TestSubmitNeverAnswered(t *testing.T) {
	const timeout = 120 * time.Millisecond
	fp := startFakePeer(t, false)
	tcp := submitTo(t, fp.addr(), PoolConfig{RequestTimeout: timeout})
	done := make(chan transport.Completion, 1)

	for n := int32(1); n <= maxConsecutiveTimeouts; n++ {
		start := time.Now()
		tcp.Submit("client", time.Unix(0, 1), records(1), done)
		c := collect(t, tcp, done, 1, 5*time.Second)[0]
		took := time.Since(start)
		if !errors.Is(c.Err, ErrRequestTimeout) || !errors.Is(c.Err, core.ErrRelayUnavailable) {
			t.Fatalf("err = %v, want ErrRelayUnavailable wrapping ErrRequestTimeout", c.Err)
		}
		if took < timeout {
			t.Fatalf("timed out after %v, before RequestTimeout %v", took, timeout)
		}
		if took > 4*timeout {
			t.Fatalf("timed out after %v, want about %v", took, timeout)
		}
		pc := liveConn(tcp.pool, fp.addr())
		if got := pc.timeouts.Load(); got != n {
			t.Fatalf("connection counts %d timeouts, want %d", got, n)
		}
		if len(pc.sem) != 0 {
			t.Fatalf("%d pending-stream slots still taken", len(pc.sem))
		}
	}
	assertNoMore(t, done)

	fp.answer.Store(true)
	tcp.Submit("client", time.Unix(0, 2), records(1), done)
	if c := collect(t, tcp, done, 1, 5*time.Second)[0]; c.Err != nil {
		t.Fatalf("after the pipe was retired: %v", c.Err)
	}
	if got := fp.accepts.Load(); got != 2 {
		t.Fatalf("%d connections accepted, want 2 (three timeouts retire the pipe)", got)
	}
}

// TestSubmitWriteErrors: the batch's flush fails, or the connection was
// already poisoned when the batch came to append. Either way every record
// completes, once.
func TestSubmitWriteErrors(t *testing.T) {
	adoptCut := func(t *testing.T, tcp *TCPConduit, addr string, hold bool) (*cutConn, *poolConn) {
		_, local := net.Pipe()
		cc := &cutConn{Conn: local, hold: hold, cut: make(chan struct{})}
		p := tcp.pool
		pc := p.adopt(newFrameConn(cc, p.cfg.MaxFrame, writeOptions{timeout: -1, stats: &p.wstats}), addr)
		p.mu.Lock()
		p.peers[addr] = &peerState{conn: pc, everConnected: true}
		p.mu.Unlock()
		return cc, pc
	}

	t.Run("flush fails mid-batch", func(t *testing.T) {
		fp := startFakePeer(t, true)
		tcp := submitTo(t, fp.addr(), PoolConfig{RequestTimeout: time.Minute})
		cc, pc := adoptCut(t, tcp, fp.addr(), true)
		done := make(chan transport.Completion, 4)
		go tcp.Submit("client", time.Unix(0, 1), records(4), done)
		waitFor(t, "the batch's flush", func() bool { return tcp.WriteStats().Flushes == 1 })
		if got := tcp.WriteStats().Frames; got != 4 {
			t.Fatalf("%d frames in the blocked flush, want the whole batch of 4", got)
		}
		close(cc.cut)
		for tag, c := range collect(t, tcp, done, 4, time.Second) {
			if !errors.Is(c.Err, core.ErrRelayUnavailable) || !errors.Is(c.Err, ErrConnClosed) {
				t.Fatalf("record %d: err = %v, want ErrRelayUnavailable wrapping ErrConnClosed", tag, c.Err)
			}
		}
		assertNoMore(t, done)
		if len(pc.sem) != 0 {
			t.Fatalf("%d pending-stream slots still taken", len(pc.sem))
		}
		tcp.Submit("client", time.Unix(0, 2), records(1), done)
		if c := collect(t, tcp, done, 1, 5*time.Second)[0]; c.Err != nil {
			t.Fatalf("after the failure: %v (no re-dial?)", c.Err)
		}
	})

	t.Run("connection already poisoned", func(t *testing.T) {
		fp := startFakePeer(t, true)
		tcp := submitTo(t, fp.addr(), PoolConfig{RequestTimeout: time.Minute})
		_, pc := adoptCut(t, tcp, fp.addr(), false)
		pc.fc.wmu.Lock()
		pc.fc.werr = errPeerDied
		pc.fc.wmu.Unlock()
		done := make(chan transport.Completion, 4)
		tcp.Submit("client", time.Unix(0, 1), records(4), done)
		for tag, c := range collect(t, tcp, done, 4, time.Second) {
			if !errors.Is(c.Err, core.ErrRelayUnavailable) {
				t.Fatalf("record %d: err = %v, want ErrRelayUnavailable", tag, c.Err)
			}
		}
		assertNoMore(t, done)
		if got := tcp.WriteStats().Frames; got != 0 {
			t.Fatalf("%d frames queued on a poisoned connection", got)
		}
		if len(pc.sem) != 0 {
			t.Fatalf("%d pending-stream slots still taken", len(pc.sem))
		}
	})
}

// TestSubmitCompletesWithoutTheWire: an unresolved relay, a full pipe and a
// peer that cannot be dialled complete in Submit itself; no frame is written
// for them and no slot is kept.
func TestSubmitCompletesWithoutTheWire(t *testing.T) {
	fp := startFakePeer(t, false)
	tcp := submitTo(t, fp.addr(), PoolConfig{MaxPending: 2, RequestTimeout: time.Minute})
	if _, err := tcp.pool.conn(fp.addr()); err != nil {
		t.Fatal(err)
	}
	before := tcp.WriteStats().Frames

	batch := append(records(4), transport.Submission{To: "ghost", Payload: []byte("x"), Tag: 4})
	done := make(chan transport.Completion, len(batch))
	tcp.Submit("client", time.Unix(0, 1), batch, done)
	early := collect(t, tcp, done, 3, time.Second)
	if c, ok := early[4]; !ok || !errors.Is(c.Err, core.ErrRelayUnresolved) || !errors.Is(c.Err, core.ErrRelayUnavailable) {
		t.Fatalf("unresolved relay: %+v, want ErrRelayUnresolved", early)
	}
	for _, tag := range []int{2, 3} {
		if c, ok := early[tag]; !ok || !errors.Is(c.Err, ErrPipeFull) || !errors.Is(c.Err, core.ErrRelayUnavailable) {
			t.Fatalf("record %d beyond MaxPending: %+v, want ErrPipeFull", tag, early)
		}
	}
	if got := tcp.WriteStats().Frames - before; got != 2 {
		t.Fatalf("%d frames written, want the 2 that had a slot", got)
	}
	pc := liveConn(tcp.pool, fp.addr())
	if len(pc.sem) != 2 {
		t.Fatalf("%d slots taken with 2 records in flight", len(pc.sem))
	}
	fp.kill()
	collect(t, tcp, done, 2, time.Second)
	assertNoMore(t, done)
	if len(pc.sem) != 0 {
		t.Fatalf("%d slots still taken after every record completed", len(pc.sem))
	}

	dead := NewTCPConduit(ConduitConfig{
		Resolve:    StaticResolver(map[string]string{"r0": "127.0.0.1:1", "r1": "127.0.0.1:1"}), // reserved port: refuses
		PoolConfig: PoolConfig{DialTimeout: 500 * time.Millisecond},
	})
	defer dead.Close()
	dead.Submit("client", time.Unix(0, 1), records(2), done)
	for tag, c := range collect(t, dead, done, 2, 5*time.Second) {
		if !errors.Is(c.Err, core.ErrRelayUnavailable) {
			t.Fatalf("record %d to a dead address: %v, want ErrRelayUnavailable", tag, c.Err)
		}
	}
}

// TestSubmitCompletionsNeverBlockTheReadLoop: with a batch's completions
// sitting unreceived on their channel, the connection's read loop still
// serves a blocked RoundTrip.
func TestSubmitCompletionsNeverBlockTheReadLoop(t *testing.T) {
	fp := startFakePeer(t, true)
	tcp := submitTo(t, fp.addr(), PoolConfig{})
	done := make(chan transport.Completion, 8)
	tcp.Submit("client", time.Unix(0, 1), records(8), done)
	waitFor(t, "the batch's completions", func() bool { return len(done) == 8 })

	resp, _, err := tcp.Deliver("client", "r0", []byte("blocking"), time.Unix(0, 2))
	if err != nil || string(resp) != "blocking" {
		t.Fatalf("Deliver behind 8 unreceived completions: %q, %v", resp, err)
	}
	collect(t, tcp, done, 8, time.Second)
}

// TestSubmitExactlyOnceUnderTeardown is the race-detector run: batches keep
// being submitted while the peer's connections are cut under them. Every
// record completes exactly once, answered or not.
func TestSubmitExactlyOnceUnderTeardown(t *testing.T) {
	fp := startFakePeer(t, true)
	tcp := submitTo(t, fp.addr(), PoolConfig{RequestTimeout: 200 * time.Millisecond, BackoffBase: time.Millisecond, BackoffMax: time.Millisecond})
	stop := make(chan struct{})
	var killer sync.WaitGroup
	killer.Add(1)
	go func() {
		defer killer.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				fp.kill()
			}
		}
	}()

	const submitters, rounds, perBatch = 8, 300, 8
	var answered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := make(chan transport.Completion, perBatch)
			batch := records(perBatch)
			for r := 0; r < rounds; r++ {
				tcp.Submit("client", time.Unix(0, 1), batch, done)
				var seen [perBatch]bool
				for i := 0; i < perBatch; i++ {
					select {
					case c := <-done:
						if seen[c.Tag] {
							t.Errorf("record %d completed twice", c.Tag)
						}
						seen[c.Tag] = true
						if c.Err == nil {
							answered.Add(1)
						}
						tcp.Release(c)
					case <-time.After(10 * time.Second):
						t.Errorf("round %d: %d of %d completions", r, i, perBatch)
						return
					}
				}
				select {
				case c := <-done:
					t.Errorf("a completion beyond the batch: %+v", c)
				default:
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	killer.Wait()
	if answered.Load() == 0 {
		t.Fatal("no record was ever answered; the teardown race proved nothing")
	}
}

// TestDeliverBuffersDieWithTheConnection: a blocking Deliver keeps one
// response buffer per (client, relay) pair on the connection that answered,
// so reaping the connection frees them; the conduit itself retains nothing.
// (They used to live in a conduit-wide map that was never pruned.)
func TestDeliverBuffersDieWithTheConnection(t *testing.T) {
	fp := startFakePeer(t, true)
	tcp := submitTo(t, fp.addr(), PoolConfig{IdleTimeout: 40 * time.Millisecond})
	for i := 0; i < 200; i++ {
		relay := fmt.Sprintf("relay-%d", i)
		if resp, _, err := tcp.Deliver("client", relay, []byte(relay), time.Unix(0, 1)); err != nil || string(resp) != relay {
			t.Fatalf("deliver to %s: %q, %v", relay, resp, err)
		}
	}
	pc := liveConn(tcp.pool, fp.addr())
	pc.respMu.RLock()
	held := len(pc.respBufs)
	pc.respMu.RUnlock()
	if held != 200 {
		t.Fatalf("connection holds %d pair buffers after 200 pairs, want 200", held)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(pc, func(*poolConn) { close(collected) })
	pc = nil

	waitFor(t, "the janitor to reap the idle connection", func() bool { return liveConn(tcp.pool, fp.addr()) == nil })
	for deadline := time.Now().Add(5 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the reaped connection and its 200 pair buffers are still reachable")
		}
	}
}
