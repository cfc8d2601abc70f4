package nettrans

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/transport"
)

// asyncCall is a submitted record waiting for its answer: the stream
// table's pending entry for it (see waiter). Whoever removes the stream from
// the table — the read loop with the answer, a teardown, the janitor's
// timeout sweep — owns the call and completes it, once.
type asyncCall struct {
	pc   *poolConn
	done chan<- transport.Completion
	tag  int
	to   string
	// deadline (unix nanos) is when the janitor's sweep may fail the call
	// with ErrRequestTimeout. Written before the stream is registered.
	deadline int64
}

var asyncCallPool = sync.Pool{New: func() any { return new(asyncCall) }}

// complete posts the call's one completion and gives back its pending-stream
// slot. A transport failure is core.ErrRelayUnavailable, as from Deliver; an
// answer is read exactly as Deliver reads it, except that the response
// record stays in the frame it arrived in, which the completion carries
// until Release. The post cannot block (transport.Submitter: the submitter
// guarantees room), so the read loop may call this.
func (a *asyncCall) complete(res callResult) {
	c := transport.Completion{Tag: a.tag}
	if res.err != nil {
		c.Err = fmt.Errorf("%w: %w", core.ErrRelayUnavailable, res.err)
	} else {
		a.pc.timeouts.Store(0)
		if c.Resp, c.Injected, c.Err = decodeAnswer(a.to, res.hdr, *res.buf); c.Err == nil {
			c.Buf = res.buf
		} else {
			putFrame(res.buf)
		}
	}
	<-a.pc.sem
	done := a.done
	*a = asyncCall{}
	asyncCallPool.Put(a)
	done <- c
}

// submitScratch is the bookkeeping of one Submit, pooled.
type submitScratch struct {
	addrs []string // per record: its connection's address; "" once handled
	group []int    // the records bound for the connection being served
	sent  []sentRecord
}

// sentRecord is a record of the group that got a stream.
type sentRecord struct {
	i      int // index into the batch
	stream uint64
}

var submitScratchPool = sync.Pool{New: func() any { return new(submitScratch) }}

// Submit implements transport.Submitter natively on the pool: every record
// becomes a pending stream whose owner is the record's completion, all the
// frames bound for one pooled connection are appended to its write batch
// under one lock acquisition and share one flush, and the connection's read
// loop posts each completion as the answer arrives. Nothing here waits for an
// answer; a connection that has to be dialled first is dialled on the
// caller's goroutine.
//
// Completed without touching the wire: a relay with no address
// (core.ErrRelayUnresolved), a peer that cannot be dialled or is in backoff,
// a record beyond the frame limit, and a record for a connection already
// carrying MaxPending unanswered streams (ErrPipeFull — Submit does not wait
// for a slot). A record nobody answers is failed with ErrRequestTimeout by
// the pool's janitor (see Pool.janitor).
func (t *TCPConduit) Submit(from string, now time.Time, batch []transport.Submission, done chan<- transport.Completion) {
	sc := submitScratchPool.Get().(*submitScratch)
	sc.addrs = sc.addrs[:0]
	for i := range batch {
		addr, ok := t.resolve(batch[i].To)
		if !ok || addr == "" {
			done <- transport.Completion{Tag: batch[i].Tag, Err: errUnresolved(batch[i].To)}
			addr = ""
		}
		sc.addrs = append(sc.addrs, addr)
	}
	for i, addr := range sc.addrs {
		if addr == "" {
			continue
		}
		sc.group = sc.group[:0]
		for j := i; j < len(batch); j++ {
			if sc.addrs[j] == addr {
				sc.group = append(sc.group, j)
				sc.addrs[j] = ""
			}
		}
		t.pool.submit(addr, from, now.UnixNano(), batch, sc, done)
	}
	submitScratchPool.Put(sc)
}

// Release implements transport.Submitter: the frame a completion's response
// arrived in goes back to the frame pool.
func (t *TCPConduit) Release(c transport.Completion) {
	if c.Buf != nil {
		putFrame(c.Buf)
	}
}

// submit sends batch[i], for every i in sc.group, as a data frame on addr's
// connection: one pending stream each, one write-lock acquisition and one
// commit for all of them.
func (p *Pool) submit(addr, from string, nowNano int64, batch []transport.Submission, sc *submitScratch, done chan<- transport.Completion) {
	fail := func(i int, err error) {
		done <- transport.Completion{Tag: batch[i].Tag, Err: fmt.Errorf("%w: %w", core.ErrRelayUnavailable, err)}
	}
	start := time.Now()
	deadline := start.Add(p.cfg.RequestTimeout).UnixNano()
	group := sc.group
	sc.sent = sc.sent[:0]
	hint := 0

	var pc *poolConn
claim:
	for attempt := 0; ; attempt++ {
		var err error
		if pc, err = p.conn(addr); err != nil {
			for _, i := range group {
				fail(i, err)
			}
			return
		}
		for len(group) > 0 {
			i := group[0]
			s := &batch[i]
			// An upper bound on the frame payload; the exact size is known
			// once the leading fields are encoded, under the write lock.
			size := 8 + 3*binary.MaxVarintLen64 + len(from) + len(s.To) + len(s.Payload)
			if size > p.cfg.MaxFrame {
				fail(i, fmt.Errorf("%w: %d > %d", ErrFrameOversize, size, p.cfg.MaxFrame))
				group = group[1:]
				continue
			}
			select {
			case pc.sem <- struct{}{}:
			default:
				fail(i, fmt.Errorf("%w: %s", ErrPipeFull, addr))
				group = group[1:]
				continue
			}
			a := asyncCallPool.Get().(*asyncCall)
			*a = asyncCall{pc: pc, done: done, tag: s.Tag, to: s.To, deadline: deadline}
			stream, err := pc.st.register(waiter{async: a})
			if err != nil {
				<-pc.sem
				*a = asyncCall{}
				asyncCallPool.Put(a)
				if attempt == 0 && len(sc.sent) == 0 {
					// The connection died between lookup and registration
					// (the janitor reaped it, a teardown raced us): re-dial
					// rather than charge a healthy peer an unavailability.
					continue claim
				}
				fail(i, err)
				group = group[1:]
				continue
			}
			sc.sent = append(sc.sent, sentRecord{i, stream})
			hint += headerSize + size
			group = group[1:]
		}
		break
	}
	if len(sc.sent) == 0 {
		return
	}
	pc.lastUse.Store(start.UnixNano())

	fc := pc.fc
	fc.wmu.Lock()
	err := fc.waitWritable(hint)
	if err != nil {
		fc.wmu.Unlock()
	} else {
		meta := getFrame()
		for _, r := range sc.sent {
			s := &batch[r.i]
			*meta = appendDataMeta((*meta)[:0], nowNano, from, s.To, len(s.Payload))
			fc.appendFrame(frameData, r.stream, len(*meta)+len(s.Payload), *meta, s.Payload)
		}
		putFrame(meta)
		err = fc.commitFrames(len(sc.sent))
	}
	if err != nil {
		// A poisoned connection or a failed flush: the teardown completes
		// every stream still pending on it, this batch's included.
		p.connFailed(addr, pc, fmt.Errorf("%w: %s: write: %v", ErrConnClosed, addr, err))
	}
}
