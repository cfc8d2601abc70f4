package nettrans

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// defaultWriteTimeout bounds one flush so a stalled peer cannot wedge the
// flush leader (and every writer parked on the full batch behind it)
// forever.
const defaultWriteTimeout = 30 * time.Second

// coalesceMaxBytes bounds the bytes queued in one pending write batch;
// writers beyond it block until the flusher drains.
const coalesceMaxBytes = 256 << 10

// deadlineSlack is the re-arm elision window: an armed deadline is reused
// (no syscall) while less than a quarter of its budget has elapsed, so the
// hot path pays one SetDeadline per burst instead of one per frame. The
// effective bound stays within [3/4·d, d] of the configured duration.
const deadlineSlack = 4

// coalesceYieldRounds bounds the flush leader's cooperative linger: before
// detaching a batch the leader yields the processor up to this many times so
// writers that are already runnable can append their frames and share the
// flush's syscall. The linger stops as soon as a round brings no new bytes,
// so a lone writer pays one ~100ns scheduler round, not a wall-clock delay.
// This is what makes coalescing engage on loopback (and any transport whose
// writes never block): without it a writer finishes its own flush before it
// ever yields, and the contention queue cannot form.
const coalesceYieldRounds = 3

// WriteStats counts the write path's coalescing behavior: how many frames
// and bytes went out over how many flushes. FramesPerFlush is the
// contention proxy the net benchmark reports — 1.0 means every frame paid
// its own syscall (no write combining), higher means concurrent writers
// shared flushes.
type WriteStats struct {
	flushes atomic.Uint64
	frames  atomic.Uint64
	bytes   atomic.Uint64
}

// WriteStatsSnapshot is one point-in-time reading of a WriteStats.
type WriteStatsSnapshot struct {
	Flushes uint64 `json:"flushes"`
	Frames  uint64 `json:"frames"`
	Bytes   uint64 `json:"bytes"`
}

// FramesPerFlush is the write-combining ratio (0 when nothing flushed).
func (s WriteStatsSnapshot) FramesPerFlush() float64 {
	if s.Flushes == 0 {
		return 0
	}
	return float64(s.Frames) / float64(s.Flushes)
}

// Snapshot reads the counters.
func (w *WriteStats) Snapshot() WriteStatsSnapshot {
	return WriteStatsSnapshot{
		Flushes: w.flushes.Load(),
		Frames:  w.frames.Load(),
		Bytes:   w.bytes.Load(),
	}
}

// writeOptions holds what a frameConn's owner supplies to its write path.
type writeOptions struct {
	// timeout is the write deadline per flush (default defaultWriteTimeout;
	// negative disables).
	timeout time.Duration
	// stats, when non-nil, aggregates flush counters (shared across the
	// conns of one pool or server).
	stats *WriteStats
}

func (o *writeOptions) applyDefaults() {
	if o.timeout == 0 {
		o.timeout = defaultWriteTimeout
	} else if o.timeout < 0 {
		o.timeout = 0
	}
	if o.stats == nil {
		o.stats = &WriteStats{}
	}
}

// frameConn frames a net.Conn: a coalescing group-commit write path (many
// writers append encoded frames to a pending batch; one leader flushes the
// whole batch in a single write) and one reader-side loop (single goroutine
// by construction) consuming frames into pooled buffers.
//
// Write-path contract: a write returns when its frame is queued, not when
// it is on the socket — only the writer that found no flush in progress (the
// leader) stays to flush. Frames reach the socket in exactly the order they
// were appended to the batch queue, and appends happen under wmu. A writer
// that has returned cannot be told its frame was lost, so a failed flush
// closes the connection: the error is sticky for every later writer, and
// the socket close fails the read side, which is where every owner of a
// frameConn already tears its streams and sessions down.
type frameConn struct {
	c  net.Conn
	br *bufio.Reader

	wmu   sync.Mutex
	wcond *sync.Cond
	// wbuf is the pending batch: encoded frames (header + payload) queued
	// for the next flush. wspare is its double buffer — the flusher swaps
	// them so writers keep appending while a flush is on the wire.
	wbuf     []byte
	wspare   []byte
	flushing bool  // a leader is running the flush loop
	werr     error // sticky write-path failure
	wopts    writeOptions

	// wArmedAt tracks the armed write deadline for re-arm elision and the
	// idle-transition disarm. Flusher-owned (one flusher at a time).
	wArmedAt time.Time

	rhdr [headerSize]byte // reader-goroutine owned
	// rArmedAt/rIdle remember the armed read deadline (deadlines persist
	// until changed) so a deadline-free read can disarm it instead of dying
	// of a stale timeout mid-session, and so hot-loop reads can skip the
	// SetReadDeadline syscall while the armed deadline is still fresh.
	// Reader-goroutine owned.
	rArmedAt time.Time
	rIdle    time.Duration
	maxFrame int
}

func newFrameConn(c net.Conn, maxFrame int, wopts writeOptions) *frameConn {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	wopts.applyDefaults()
	fc := &frameConn{
		c:        c,
		br:       bufio.NewReaderSize(c, 32<<10),
		wopts:    wopts,
		maxFrame: maxFrame,
	}
	fc.wcond = sync.NewCond(&fc.wmu)
	return fc
}

// writeFrame writes one frame whose payload is the concatenation of parts.
// Parts are copied into the batch queue during the call and never retained.
// The call returns once the frame is queued; the flush leader alone returns
// after the flush, with its error.
func (fc *frameConn) writeFrame(typ frameType, stream uint64, parts ...[]byte) error {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total > fc.maxFrame {
		return fmt.Errorf("%w: %d > %d", ErrFrameOversize, total, fc.maxFrame)
	}
	fc.wmu.Lock()
	if err := fc.waitWritable(total); err != nil {
		fc.wmu.Unlock()
		return err
	}
	fc.appendFrame(typ, stream, total, parts...)
	return fc.commitFrames(1)
}

// appendFrame appends one encoded frame, whose payload is the total bytes of
// parts, to the pending batch. Called with wmu held, after waitWritable; a
// writer with several frames for this connection appends them all under the
// one acquisition and commits them together (see TCPConduit.Submit).
func (fc *frameConn) appendFrame(typ frameType, stream uint64, total int, parts ...[]byte) {
	var hdr [headerSize]byte
	putHeader(&hdr, typ, stream, total)
	fc.wbuf = append(fc.wbuf, hdr[:]...)
	for _, p := range parts {
		fc.wbuf = append(fc.wbuf, p...)
	}
}

// waitWritable blocks (wmu held) until the frame may join the pending
// batch: the connection is not poisoned and the batch is under its byte
// bound. An empty batch always admits, so a frame larger than the bound
// still ships (alone).
func (fc *frameConn) waitWritable(hint int) error {
	for fc.werr == nil {
		if len(fc.wbuf) == 0 || len(fc.wbuf)+hint <= coalesceMaxBytes {
			return nil
		}
		// Backpressure: the batch is full; wait for the leader to detach it.
		fc.wcond.Wait()
	}
	return fc.werr
}

// commitFrames finishes a write after the bytes of n frames were appended
// under wmu: the first writer into an idle queue becomes the flush leader and
// drains the queue; everyone else is done — the leader in progress carries
// their frames. Called with wmu held; always unlocks it.
func (fc *frameConn) commitFrames(n int) error {
	fc.wopts.stats.frames.Add(uint64(n))
	mFramesWritten.Add(uint64(n))
	if fc.flushing {
		fc.wmu.Unlock()
		return nil
	}
	fc.flushing = true
	return fc.flushLoop()
}

// flushLoop is the leader side of the group commit: repeatedly detach the
// pending batch and write it in one call, until the queue is empty or a
// flush fails. A failure poisons the connection and closes the socket (see
// the frameConn contract). Called with wmu held; always unlocks it.
func (fc *frameConn) flushLoop() error {
	for {
		// Cooperative linger: yield before detaching so writers that are
		// runnable right now join this batch instead of paying their own
		// flush. Bounded, and abandoned the moment a round adds nothing.
		for i := 0; i < coalesceYieldRounds; i++ {
			before := len(fc.wbuf)
			if before >= coalesceMaxBytes {
				break
			}
			fc.wmu.Unlock()
			runtime.Gosched()
			fc.wmu.Lock()
			if len(fc.wbuf) == before {
				break
			}
		}
		batch := fc.wbuf
		fc.wbuf = fc.wspare[:0]
		fc.wspare = nil
		// The pending batch is empty again: writers parked on the byte bound
		// fill it while this one is on the wire.
		fc.wcond.Broadcast()
		fc.wmu.Unlock()

		err := fc.flushBytes(batch)

		fc.wmu.Lock()
		fc.wspare = batch[:0]
		if err != nil {
			fc.werr = err
			fc.flushing = false
			fc.wcond.Broadcast()
			fc.wmu.Unlock()
			fc.c.Close() //nolint:errcheck // the flush error is the one reported
			return err
		}
		if len(fc.wbuf) == 0 {
			// Going idle: disarm the write deadline so the stale one cannot
			// fire mid-write after an idle gap (the write-side mirror of the
			// read path's deadline-free disarm). Done before handing off the
			// flusher role so no new leader can race the disarm.
			fc.disarmWriteDeadline()
			fc.flushing = false
			fc.wmu.Unlock()
			return nil
		}
	}
}

// flushBytes writes one detached batch to the socket. Runs outside wmu —
// writers keep queueing into the next batch while this one is on the wire.
func (fc *frameConn) flushBytes(batch []byte) error {
	if len(batch) == 0 {
		return nil
	}
	if d := fc.wopts.timeout; d > 0 {
		now := time.Now()
		if fc.wArmedAt.IsZero() || now.Sub(fc.wArmedAt) > d/deadlineSlack {
			if err := fc.c.SetWriteDeadline(now.Add(d)); err != nil {
				return err
			}
			fc.wArmedAt = now
		}
	}
	fc.wopts.stats.flushes.Add(1)
	fc.wopts.stats.bytes.Add(uint64(len(batch)))
	mFlushes.Inc()
	mWrittenBytes.Add(uint64(len(batch)))
	_, err := fc.c.Write(batch)
	return err
}

// disarmWriteDeadline clears an armed write deadline (wmu held, flusher
// role still owned).
func (fc *frameConn) disarmWriteDeadline() {
	if !fc.wArmedAt.IsZero() {
		fc.c.SetWriteDeadline(time.Time{}) //nolint:errcheck // best-effort disarm on a conn going idle
		fc.wArmedAt = time.Time{}
	}
}

// writeErrFrame reports a failed exchange on a stream.
func (fc *frameConn) writeErrFrame(stream uint64, code byte, msg string) error {
	buf := getFrame()
	*buf = appendErrPayload((*buf)[:0], code, msg)
	err := fc.writeFrame(frameErr, stream, *buf)
	putFrame(buf)
	return err
}

// readFrame reads one frame into a pooled buffer. The caller owns the
// returned buffer and must putFrame it. idle > 0 arms a read deadline
// covering the whole frame; idle <= 0 disarms any deadline a previous read
// (the dial/hello/attest phase) left behind. An already-armed deadline for
// the same idle window is reused while fresh (re-arm elision), so hot-loop
// reads skip the syscall; the effective idle bound stays within
// [3/4·idle, idle].
func (fc *frameConn) readFrame(idle time.Duration) (header, *[]byte, error) {
	if idle > 0 {
		now := time.Now()
		if fc.rArmedAt.IsZero() || idle != fc.rIdle || now.Sub(fc.rArmedAt) > idle/deadlineSlack {
			if err := fc.c.SetReadDeadline(now.Add(idle)); err != nil {
				return header{}, nil, err
			}
			fc.rArmedAt = now
			fc.rIdle = idle
		}
	} else if !fc.rArmedAt.IsZero() {
		if err := fc.c.SetReadDeadline(time.Time{}); err != nil {
			return header{}, nil, err
		}
		fc.rArmedAt = time.Time{}
	}
	if _, err := io.ReadFull(fc.br, fc.rhdr[:]); err != nil {
		return header{}, nil, err
	}
	h, err := parseHeader(&fc.rhdr, fc.maxFrame)
	if err != nil {
		return header{}, nil, err
	}
	buf := getFrame()
	if cap(*buf) < int(h.length) {
		*buf = make([]byte, h.length)
	} else {
		*buf = (*buf)[:h.length]
	}
	if _, err := io.ReadFull(fc.br, *buf); err != nil {
		putFrame(buf)
		return header{}, nil, err
	}
	mFramesRead.Inc()
	mReadBytes.Add(headerSize + uint64(h.length))
	return h, buf, nil
}

// sendHello writes this side's connection preamble.
func (fc *frameConn) sendHello(id string) error {
	buf := getFrame()
	*buf = appendHelloPayload((*buf)[:0], id)
	err := fc.writeFrame(frameHello, 0, *buf)
	putFrame(buf)
	return err
}

// expectHello reads the peer's preamble and returns its announced identity.
func (fc *frameConn) expectHello(timeout time.Duration) (string, error) {
	h, buf, err := fc.readFrame(timeout)
	if err != nil {
		return "", err
	}
	defer putFrame(buf)
	if h.typ != frameHello {
		return "", fmt.Errorf("nettrans: expected hello, got frame type %d", h.typ)
	}
	id, err := decodeHelloPayload(*buf)
	if err != nil {
		return "", fmt.Errorf("nettrans: bad hello: %w", err)
	}
	return string(id), nil
}

func (fc *frameConn) Close() error {
	return fc.c.Close()
}
