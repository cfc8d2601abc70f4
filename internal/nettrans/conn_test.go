package nettrans

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestConcurrentWritersFrameIntegrity is the coalesced-path safety test: N
// goroutines writing interleaved frames through one conn must produce a
// byte stream that parses into exactly the frames sent — no tearing, no
// interleaving inside a frame, per-stream order preserved. Payload bytes
// are derived from (writer, seq) so any cross-frame corruption is caught
// byte-for-byte. Run under -race in CI.
func TestConcurrentWritersFrameIntegrity(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	var stats WriteStats
	wc := newFrameConn(b, DefaultMaxFrame, writeOptions{timeout: -1, stats: &stats})
	rc := newFrameConn(a, DefaultMaxFrame, writeOptions{})

	const writers = 8
	const perWriter = 64

	// payload: writer(4B) seq(4B) then a deterministic variable-length filler.
	mkPayload := func(writer, seq int) []byte {
		n := (writer*31 + seq*7) % 512
		p := make([]byte, 8+n)
		binary.BigEndian.PutUint32(p[0:4], uint32(writer))
		binary.BigEndian.PutUint32(p[4:8], uint32(seq))
		for i := range p[8:] {
			p[8+i] = byte(writer ^ seq ^ i)
		}
		return p
	}

	errCh := make(chan error, writers+1)
	go func() {
		nextSeq := make(map[uint64]int)
		for i := 0; i < writers*perWriter; i++ {
			h, buf, err := rc.readFrame(5 * time.Second)
			if err != nil {
				errCh <- fmt.Errorf("read %d: %w", i, err)
				return
			}
			if h.typ != frameData {
				errCh <- fmt.Errorf("frame %d: type %d, want data", i, h.typ)
				return
			}
			writer := int(h.stream - 1)
			seq := nextSeq[h.stream]
			nextSeq[h.stream] = seq + 1
			if want := mkPayload(writer, seq); !bytes.Equal(*buf, want) {
				errCh <- fmt.Errorf("stream %d frame %d: payload corrupted (%d bytes, want %d)",
					h.stream, seq, len(*buf), len(want))
				putFrame(buf)
				return
			}
			putFrame(buf)
		}
		errCh <- nil
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream := uint64(w + 1)
			for seq := 0; seq < perWriter; seq++ {
				p := mkPayload(w, seq)
				// Alternate between single-part and split-part writes so the
				// multi-part append path is exercised under contention too.
				var err error
				if seq%2 == 0 {
					err = wc.writeFrame(frameData, stream, p)
				} else {
					err = wc.writeFrame(frameData, stream, p[:4], p[4:])
				}
				if err != nil {
					errCh <- fmt.Errorf("writer %d seq %d: %w", w, seq, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	snap := stats.Snapshot()
	if snap.Frames != writers*perWriter {
		t.Fatalf("stats counted %d frames, want %d", snap.Frames, writers*perWriter)
	}
	if snap.Flushes == 0 || snap.Flushes > snap.Frames {
		t.Fatalf("implausible flush count %d for %d frames", snap.Flushes, snap.Frames)
	}
	// net.Pipe writes block until read, so while one flush is on the wire
	// concurrent writers pile into the next batch: at least one flush must
	// have carried more than one frame.
	if snap.Flushes == snap.Frames {
		t.Fatalf("no write combining observed: %d flushes for %d frames", snap.Flushes, snap.Frames)
	}
	t.Logf("coalescing: %d frames over %d flushes (%.1f frames/flush)",
		snap.Frames, snap.Flushes, snap.FramesPerFlush())
}

// TestWriteBatchByteBound drives the pending-batch byte bound: writers of
// ~100 KiB frames against a peer that is not reading must block in
// waitWritable once the batch passes coalesceMaxBytes (the queue does not
// grow with the number of writers), resume when the peer drains, and
// deliver every frame intact and in per-writer order. It starts with the
// double buffer's reason to exist: a writer parked on the full batch gets
// into the next one as soon as the leader detaches, while that flush is
// still blocked on the peer.
func TestWriteBatchByteBound(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	var stats WriteStats
	wc := newFrameConn(b, DefaultMaxFrame, writeOptions{timeout: -1, stats: &stats})
	rc := newFrameConn(a, DefaultMaxFrame, writeOptions{})

	const writers, perWriter, frameLen = 6, 3, 100 << 10
	mkPayload := func(writer, seq int) []byte {
		p := bytes.Repeat([]byte{byte(writer<<4 | seq)}, frameLen)
		binary.BigEndian.PutUint32(p, uint32(seq))
		return p
	}
	waitFlushes := func(n uint64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); stats.Snapshot().Flushes < n; {
			if time.Now().After(deadline) {
				t.Fatalf("%d flushes started, want %d", stats.Snapshot().Flushes, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	pendingBytes := func() int {
		wc.wmu.Lock()
		defer wc.wmu.Unlock()
		return len(wc.wbuf)
	}
	readIntact := func(stream uint64, writer, seq int) {
		t.Helper()
		h, buf, err := rc.readFrame(5 * time.Second)
		if err != nil {
			t.Fatalf("read stream %d: %v", stream, err)
		}
		if h.stream != stream || !bytes.Equal(*buf, mkPayload(writer, seq)) {
			t.Fatalf("got stream %d, want stream %d intact", h.stream, stream)
		}
		putFrame(buf)
	}

	// Overlap: the leader's first flush (frame 101) is stuck on the pipe; 102
	// and 103 queue behind it and return; 104 does not fit and parks.
	leader := make(chan error, 1)
	go func() { leader <- wc.writeFrame(frameData, 101, mkPayload(10, 1)) }()
	waitFlushes(1)
	for stream := uint64(102); stream <= 103; stream++ {
		if err := wc.writeFrame(frameData, stream, mkPayload(10, int(stream-100))); err != nil {
			t.Fatal(err)
		}
	}
	parked := make(chan error, 1)
	go func() { parked <- wc.writeFrame(frameData, 104, mkPayload(10, 4)) }()
	select {
	case err := <-parked:
		t.Fatalf("a third 100 KiB frame joined a %d-byte batch (err %v)", pendingBytes(), err)
	case <-time.After(50 * time.Millisecond):
	}
	if got := stats.Snapshot().Frames; got != 3 {
		t.Fatalf("%d frames queued with one parked, want 3", got)
	}
	// Let exactly the first flush through. The leader detaches 102+103 and
	// blocks again — nobody reads — and that detach must admit 104.
	readIntact(101, 10, 1)
	waitFlushes(2)
	select {
	case err := <-parked:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked writer still waiting after the detach: filling does not overlap flushing")
	}
	if got := stats.Snapshot().Flushes; got != 2 {
		t.Fatalf("%d flushes by the time the parked writer got in, want 2 (the second still blocked)", got)
	}
	if pending := pendingBytes(); pending > coalesceMaxBytes {
		t.Fatalf("pending batch %d bytes exceeds the %d bound", pending, coalesceMaxBytes)
	}
	for seq := 2; seq <= 4; seq++ {
		readIntact(uint64(100+seq), 10, seq)
	}
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	flushed, queued := stats.Snapshot().Flushes, stats.Snapshot().Frames

	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 0; seq < perWriter; seq++ {
				if err := wc.writeFrame(frameData, uint64(w+1), mkPayload(w, seq)); err != nil {
					errCh <- fmt.Errorf("writer %d seq %d: %w", w, seq, err)
					return
				}
			}
		}(w)
	}

	// Nobody reads yet, so the leader's first flush is stuck on the pipe.
	// Two frames fit under the bound and a third does not: the stuck batch
	// and the one pending behind it hold at most two frames each, and the
	// other writers must be parked outside the queue, not appended to it.
	waitFlushes(flushed + 1)
	time.Sleep(50 * time.Millisecond) // let every writer reach the queue or the bound
	if pending := pendingBytes(); pending > coalesceMaxBytes {
		t.Fatalf("pending batch %d bytes exceeds the %d bound", pending, coalesceMaxBytes)
	}
	if got := stats.Snapshot().Frames - queued; got > 4 {
		t.Fatalf("%d frames queued against a stalled peer, want at most 4 (2 on the wire, 2 pending)", got)
	}

	// Drain: every blocked writer resumes and every frame arrives whole.
	nextSeq := make(map[uint64]int)
	for i := 0; i < writers*perWriter; i++ {
		h, buf, err := rc.readFrame(5 * time.Second)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		seq := nextSeq[h.stream]
		nextSeq[h.stream] = seq + 1
		if want := mkPayload(int(h.stream-1), seq); !bytes.Equal(*buf, want) {
			t.Fatalf("stream %d frame %d corrupted or out of order", h.stream, seq)
		}
		putFrame(buf)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestWriteDeadlineRearmedAfterIdleGap: a flush arms a write deadline, and
// net.Conn deadlines persist until changed, so a connection that went idle
// still carries its last one. After an idle gap longer than the write
// timeout that deadline has expired; the next flush must re-arm it, or the
// write fails at once instead of waiting for a slow reader.
func TestWriteDeadlineRearmedAfterIdleGap(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := newFrameConn(b, DefaultMaxFrame, writeOptions{timeout: 100 * time.Millisecond})

	frame1 := make([]byte, headerSize+3)
	r1 := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(a, frame1)
		r1 <- err
	}()
	if err := fc.writeFrame(frameData, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := <-r1; err != nil {
		t.Fatal(err)
	}

	// Idle well past the write timeout: the deadline armed for frame one has
	// expired by now.
	time.Sleep(250 * time.Millisecond)

	r2 := make(chan error, 1)
	go func() {
		time.Sleep(50 * time.Millisecond) // slow-start reader, inside the timeout
		buf := make([]byte, headerSize+3)
		_, err := io.ReadFull(a, buf)
		r2 <- err
	}()
	if err := fc.writeFrame(frameData, 2, []byte("two")); err != nil {
		t.Fatalf("write after idle gap: %v (expired write deadline not re-armed?)", err)
	}
	if err := <-r2; err != nil {
		t.Fatal(err)
	}
}

// deadlineCounter counts the write deadlines set on a conn: arms with a
// time, disarms with the zero time.
type deadlineCounter struct {
	net.Conn
	arms, disarms int
}

func (c *deadlineCounter) SetWriteDeadline(t time.Time) error {
	if t.IsZero() {
		c.disarms++
	} else {
		c.arms++
	}
	return c.Conn.SetWriteDeadline(t)
}

// pingPong runs n exchanges, one frame each way, from a connection built
// with the given write timeout to an echoing peer, and returns the write
// deadlines the connection set and its write counters.
func pingPong(t *testing.T, timeout time.Duration, n int) (*deadlineCounter, WriteStatsSnapshot) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	counted := &deadlineCounter{Conn: b}
	var stats WriteStats
	fc := newFrameConn(counted, DefaultMaxFrame, writeOptions{timeout: timeout, stats: &stats})
	echo := newFrameConn(a, DefaultMaxFrame, writeOptions{timeout: -1})
	go func() {
		for {
			h, buf, err := echo.readFrame(0)
			if err != nil {
				return
			}
			err = echo.writeFrame(frameData, h.stream, *buf)
			putFrame(buf)
			if err != nil {
				return
			}
		}
	}()
	for i := uint64(1); i <= uint64(n); i++ {
		if err := fc.writeFrame(frameData, i, []byte("ping")); err != nil {
			t.Fatal(err)
		}
		h, buf, err := fc.readFrame(0)
		if err != nil {
			t.Fatal(err)
		}
		putFrame(buf)
		if h.stream != i {
			t.Fatalf("answer on stream %d, want %d", h.stream, i)
		}
	}
	return counted, stats.Snapshot()
}

// TestWriteDeadlineArmedOncePerQuarterBudget: a connection that goes idle
// after every flush — a ping-pong, one frame each way — keeps its write
// deadline, so N warm exchanges inside one quarter of the budget arm it
// once and never disarm it, instead of arming and disarming around every
// flush. A connection built without a write timeout never sets a deadline.
func TestWriteDeadlineArmedOncePerQuarterBudget(t *testing.T) {
	const exchanges = 200
	counted, stats := pingPong(t, time.Hour, exchanges)
	if stats.Flushes != exchanges {
		t.Fatalf("%d exchanges took %d flushes, want one each", exchanges, stats.Flushes)
	}
	if counted.arms != 1 || counted.disarms != 0 {
		t.Fatalf("%d flushes in one quarter budget armed the deadline %d times and disarmed it %d times, want 1 and 0", exchanges, counted.arms, counted.disarms)
	}

	counted, _ = pingPong(t, -1, exchanges)
	if counted.arms != 0 || counted.disarms != 0 {
		t.Fatalf("a connection without a write timeout armed %d deadlines and disarmed %d, want none", counted.arms, counted.disarms)
	}
}

// TestWriteErrorIsSticky: a failed flush poisons the connection for every
// later writer instead of silently dropping frames.
func TestWriteErrorIsSticky(t *testing.T) {
	a, b := net.Pipe()
	fc := newFrameConn(b, DefaultMaxFrame, writeOptions{timeout: -1})
	a.Close() // peer gone: the first flush fails
	if err := fc.writeFrame(frameData, 1, []byte("x")); err == nil {
		t.Fatal("write to closed pipe succeeded")
	}
	if err := fc.writeFrame(frameData, 2, []byte("y")); err == nil {
		t.Fatal("write after sticky failure succeeded")
	}
	b.Close()
}

// TestBatchedWriteAllocs pins the coalesced write path at zero allocations
// per frame in steady state: header encode, batch append and flush all run
// in reused buffers. Deadlines are disabled because net.Pipe allocates a
// runtime timer per SetWriteDeadline — the pin is about the batching path
// itself.
func TestBatchedWriteAllocs(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := newFrameConn(b, DefaultMaxFrame, writeOptions{timeout: -1})
	go io.Copy(io.Discard, a) //nolint:errcheck

	payload := bytes.Repeat([]byte{0x42}, 512)
	// Warm the batch buffers so growth is behind us.
	for i := 0; i < 64; i++ {
		if err := fc.writeFrame(frameData, 7, payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := fc.writeFrame(frameData, 7, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("batched write path allocates %.1f per frame, want 0", allocs)
	}
}

// TestWriteFrameOversizeDoesNotPoison: an oversize rejection is a caller
// error, not a transport failure — the conn keeps working.
func TestWriteFrameOversizeDoesNotPoison(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := newFrameConn(b, 1024, writeOptions{timeout: -1})
	if err := fc.writeFrame(frameData, 1, make([]byte, 2048)); !errors.Is(err, ErrFrameOversize) {
		t.Fatalf("err = %v, want ErrFrameOversize", err)
	}
	go io.Copy(io.Discard, a) //nolint:errcheck
	if err := fc.writeFrame(frameData, 1, []byte("fits")); err != nil {
		t.Fatalf("conn poisoned by oversize rejection: %v", err)
	}
}

// TestShardedStreamTable covers the sharded multiplexing table: IDs are
// unique across shards, delivery routes to the right waiter, teardown is
// exactly-once and fails everything.
func TestShardedStreamTable(t *testing.T) {
	st := newShardedStreamTable(4)
	type pend struct {
		id uint64
		ch chan callResult
	}
	var ps []pend
	seen := make(map[uint64]bool)
	for i := 0; i < 64; i++ {
		ch := make(chan callResult, 1)
		id, err := st.register(waiter{ch: ch})
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatalf("duplicate stream id %d", id)
		}
		seen[id] = true
		ps = append(ps, pend{id, ch})
	}
	if st.idle() {
		t.Fatal("idle with 64 pending streams")
	}
	for i, p := range ps[:32] {
		if !st.deliver(p.id, callResult{hdr: header{length: uint32(i)}}) {
			t.Fatalf("deliver %d found no waiter", p.id)
		}
		if got := (<-p.ch).hdr.length; got != uint32(i) {
			t.Fatalf("stream %d got %d, want %d", p.id, got, i)
		}
	}
	if st.deliver(ps[0].id, callResult{}) {
		t.Fatal("double delivery accepted")
	}
	if due := st.expire(1<<62, nil); len(due) != 0 {
		t.Fatalf("the timeout sweep claimed %d blocked round trips", len(due))
	}

	// Concurrent teardown: exactly one closer wins.
	terr := errors.New("down")
	var wg sync.WaitGroup
	killed := make(chan bool, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			killed <- st.close(terr)
		}()
	}
	wg.Wait()
	close(killed)
	wins := 0
	for k := range killed {
		if k {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("%d closers reported the kill, want exactly 1", wins)
	}
	for _, p := range ps[32:] {
		if got := <-p.ch; got.err != terr {
			t.Fatalf("pending stream %d got %v, want the teardown error", p.id, got.err)
		}
	}
	if _, err := st.register(waiter{ch: make(chan callResult, 1)}); !errors.Is(err, terr) {
		t.Fatalf("register after close: %v, want %v", err, terr)
	}
	if st.alive() {
		t.Fatal("alive after close")
	}
}
