package nettrans

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/transport"
)

// ConduitConfig configures a TCPConduit.
type ConduitConfig struct {
	// Resolve maps a relay node ID to its server's TCP address. An
	// unresolvable relay is reported unavailable. Required.
	Resolve func(nodeID string) (addr string, ok bool)
	// Pool carries the connections; when nil a private pool with PoolConfig
	// defaults is created (and owned — Close tears it down).
	Pool *Pool
	// PoolConfig configures the private pool when Pool is nil.
	PoolConfig PoolConfig
}

// TCPConduit delivers forward records over real TCP connections: it
// implements transport.Conduit, so a core.Network configured with it runs
// the unchanged protocol over sockets, and transport.Submitter natively (see
// Submit), which is the form core.Node.Search uses. Many in-flight exchanges
// to the same peer multiplex over one pooled connection via frame stream
// IDs.
//
// Ownership contract (see transport.Conduit): the request record is copied
// into the connection's write batch during the call and never retained. A
// blocking Deliver copies the response record off the wire into a per-pair
// buffer of the connection that answered, which stays untouched until the
// same pair's next delivery; a submitted record's response stays in the
// pooled frame it was read into until Release.
type TCPConduit struct {
	pool      *Pool
	ownsPool  bool
	resolve   func(string) (string, bool)
	closeOnce sync.Once
}

type pairKey struct{ from, to string }

// pairBuf holds a pair's response scratch. The protocol serializes a pair's
// exchanges (the record sequence numbers leave no other order), so the
// buffer needs no lock of its own.
type pairBuf struct{ buf []byte }

var (
	_ transport.Conduit   = (*TCPConduit)(nil)
	_ transport.Submitter = (*TCPConduit)(nil)
	_ transport.Attestor  = (*TCPConduit)(nil)
)

// NewTCPConduit builds a conduit over the given resolver.
func NewTCPConduit(cfg ConduitConfig) *TCPConduit {
	if cfg.Resolve == nil {
		panic("nettrans: ConduitConfig.Resolve is required")
	}
	pool := cfg.Pool
	owns := false
	if pool == nil {
		pool = NewPool(cfg.PoolConfig)
		owns = true
	}
	return &TCPConduit{
		pool:     pool,
		ownsPool: owns,
		resolve:  cfg.Resolve,
	}
}

// WriteStats snapshots the underlying pool's aggregated write-path
// counters (flushes, frames, bytes — the coalescing contention proxy).
func (t *TCPConduit) WriteStats() WriteStatsSnapshot { return t.pool.WriteStats() }

// roundTrip sends one request frame to relay to and returns its answer.
// Transport-level failures — dial failure, backoff window, saturated pipe,
// timeout, connection cut — are reported as core.ErrRelayUnavailable so the
// retry layer blacklists the peer exactly as it would an unresponsive
// simulated one; a relay with no address is core.ErrRelayUnresolved on top,
// which spares it the blacklist.
func (t *TCPConduit) roundTrip(to string, typ frameType, parts ...[]byte) (*poolConn, header, *[]byte, error) {
	addr, ok := t.resolve(to)
	if !ok {
		return nil, header{}, nil, errUnresolved(to)
	}
	pc, h, buf, err := t.pool.roundTrip(addr, typ, parts...)
	if err != nil {
		return nil, header{}, nil, fmt.Errorf("%w: %w", core.ErrRelayUnavailable, err)
	}
	return pc, h, buf, nil
}

func errUnresolved(to string) error {
	return fmt.Errorf("%w: %w: nettrans: no address for relay %s", core.ErrRelayUnavailable, core.ErrRelayUnresolved, to)
}

// errFrame turns a served err frame into the error the protocol acts on (see
// the errCode constants); any other code surfaces as a plain error, which
// the protocol classifies as relay misbehavior.
func errFrame(to string, payload []byte) error {
	code, msg, err := decodeErrPayload(payload)
	switch {
	case err != nil:
		return fmt.Errorf("nettrans: bad err frame from %s: %w", to, err)
	case code == errCodeUnavailable:
		return fmt.Errorf("%w: nettrans: relay %s: %s", core.ErrRelayUnavailable, to, msg)
	case code == errCodeThrottled:
		return fmt.Errorf("%w: nettrans: relay %s: %s", core.ErrRelayThrottled, to, msg)
	case code == errCodeNoSession:
		return fmt.Errorf("%w: nettrans: relay %s: %s", core.ErrNoSession, to, msg)
	case code == errCodeBusy:
		return fmt.Errorf("%w: %w: nettrans: relay %s: %s", core.ErrRelayUnavailable, core.ErrRelayUnresolved, to, msg)
	}
	return fmt.Errorf("nettrans: relay %s rejected exchange: %s", to, msg)
}

// Attest implements transport.Attestor: one attest frame carrying from, to
// and the offer out on the pooled connection, the relay's offer back. The
// session the relay installs belongs to that connection. A relay that
// refuses the offer — or answers with something that is not one — fails
// with ErrAttestRejected.
func (t *TCPConduit) Attest(from, to string, offer []byte) ([]byte, error) {
	req := getFrame()
	*req = appendAttestPayload((*req)[:0], from, to, offer)
	_, h, buf, err := t.roundTrip(to, frameAttest, *req)
	putFrame(req)
	if err != nil {
		return nil, err
	}
	defer putFrame(buf)

	switch {
	case h.typ == frameErr:
		err := errFrame(to, *buf)
		if !errors.Is(err, core.ErrRelayUnavailable) {
			err = fmt.Errorf("%w: %w", ErrAttestRejected, err)
		}
		return nil, err
	case h.typ != frameAttest:
		return nil, fmt.Errorf("%w: unexpected frame type %d from %s", ErrAttestRejected, h.typ, to)
	case len(*buf) > maxHandshakeLen:
		return nil, fmt.Errorf("%w: %s answered with a %d-byte offer (limit %d)", ErrAttestRejected, to, len(*buf), maxHandshakeLen)
	}
	return append([]byte(nil), *buf...), nil
}

// Deliver implements transport.Conduit: one data frame out, one resp (or
// err) frame back.
func (t *TCPConduit) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	meta := getFrame()
	*meta = appendDataMeta((*meta)[:0], now.UnixNano(), from, to, len(payload))
	pc, h, buf, err := t.roundTrip(to, frameData, *meta, payload)
	putFrame(meta)
	if err != nil {
		return nil, 0, err
	}
	defer putFrame(buf)
	record, injected, err := decodeAnswer(to, h, *buf)
	if err != nil {
		return nil, 0, err
	}
	pb := pc.respBuf(from, to)
	pb.buf = append(pb.buf[:0], record...)
	return pb.buf, injected, nil
}

// decodeAnswer reads the frame that answered a data frame sent to relay to:
// the response record (aliasing payload) and the latency the far side
// injected, or the error the protocol acts on.
func decodeAnswer(to string, h header, payload []byte) ([]byte, time.Duration, error) {
	switch h.typ {
	case frameResp:
		injectedNano, record, err := decodeRespPayload(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("nettrans: bad resp frame from %s: %w", to, err)
		}
		return record, time.Duration(injectedNano), nil
	case frameErr:
		return nil, 0, errFrame(to, payload)
	default:
		return nil, 0, fmt.Errorf("nettrans: unexpected frame type %d from %s", h.typ, to)
	}
}

// respBuf returns (creating on first use) the buffer blocking deliveries of
// (from, to) answered on this connection copy their response into.
func (pc *poolConn) respBuf(from, to string) *pairBuf {
	key := pairKey{from, to}
	pc.respMu.RLock()
	pb, ok := pc.respBufs[key]
	pc.respMu.RUnlock()
	if ok {
		return pb
	}
	pc.respMu.Lock()
	defer pc.respMu.Unlock()
	if pb, ok = pc.respBufs[key]; !ok {
		if pc.respBufs == nil {
			pc.respBufs = make(map[pairKey]*pairBuf)
		}
		pb = &pairBuf{}
		pc.respBufs[key] = pb
	}
	return pb
}

// Close releases the conduit's pool (only when it owns it).
func (t *TCPConduit) Close() error {
	var err error
	t.closeOnce.Do(func() {
		if t.ownsPool {
			err = t.pool.Close()
		}
	})
	return err
}

// StaticResolver builds a Resolve func from a fixed nodeID -> address map.
func StaticResolver(addrs map[string]string) func(string) (string, bool) {
	return func(id string) (string, bool) {
		a, ok := addrs[id]
		return a, ok
	}
}
