package nettrans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"cyclosa/internal/accounting"
	"cyclosa/internal/backend"
	"cyclosa/internal/core"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/securechan"
	"cyclosa/internal/telemetry"
	"cyclosa/internal/wire"
	"cyclosa/internal/workers"
)

// maxServiceQueryLen bounds a query travelling the attested service (same
// bound as the core wire codec).
const maxServiceQueryLen = 8 << 10

// Service errors.
var (
	ErrNotAttested   = errors.New("nettrans: connection not attested")
	ErrReAttest      = errors.New("nettrans: re-attestation on a live connection")
	ErrStreamEcho    = errors.New("nettrans: record stream echo mismatch")
	ErrClientClosed  = errors.New("nettrans: client closed")
	ErrServerGoaway  = errors.New("nettrans: server draining")
	ErrEngineRefused = errors.New("nettrans: engine refused query")
)

// RelayService is the server half of the attested query plane: it
// establishes one securechan session per connection (responder role) and
// answers session-encrypted queries from its backend. Wire it into a
// Server via ServerConfig.Service.
type RelayService struct {
	// Handshaker drives the relay's side of the attested key exchange.
	Handshaker *securechan.Handshaker
	// Backend answers the queries.
	Backend core.Backend
	// Source is the engine-visible identity the relay submits queries under
	// (the relay's own identity — that is the unlinkability point).
	Source string
}

// serviceConn is the per-connection state of the service: the responder
// session and the read-loop decrypt scratch.
type serviceConn struct {
	svc  *RelayService
	fc   *frameConn
	peer string

	sess  *securechan.Session
	ptBuf []byte // read-loop owned
}

func (svc *RelayService) newConn(fc *frameConn, peer string) *serviceConn {
	return &serviceConn{svc: svc, fc: fc, peer: peer}
}

func (sc *serviceConn) attested() bool { return sc.sess != nil }

// handleAttest runs the responder side of the attested key exchange: verify
// the client's offer, reply with our own, install the session. One session
// per connection; re-attestation is a protocol violation (reconnect
// instead), because it would discard counters mid-stream.
func (sc *serviceConn) handleAttest(h header, payload []byte) error {
	if sc.sess != nil {
		return ErrReAttest
	}
	peerMsg, err := securechan.UnmarshalHandshakeMsg(payload)
	if err != nil {
		return err
	}
	sess, err := sc.svc.Handshaker.Establish(peerMsg, false)
	if err != nil {
		// Tell the dialer why before cutting the connection.
		sc.fc.writeErrFrame(h.stream, errCodeRejected, err.Error()) //nolint:errcheck
		return err
	}
	offer, err := sc.svc.Handshaker.Offer()
	if err != nil {
		return err
	}
	raw, err := offer.Marshal()
	if err != nil {
		return err
	}
	if err := sc.fc.writeFrame(frameAttest, h.stream, raw); err != nil {
		return err
	}
	sc.sess = sess
	return nil
}

// skipRecord consumes an over-quota record's sequence number without
// opening it — the shed path of pre-decrypt admission. See
// securechan.Session.Skip for why a record can never simply be dropped.
func (sc *serviceConn) skipRecord(payload []byte) error {
	return sc.sess.Skip(payload)
}

// prepareQuery opens one query record — in the read loop, because records
// must be decrypted in arrival order — and returns the engine work to
// dispatch. A decrypt failure is unrecoverable (the session is
// desynchronized), so it surfaces as an error that cuts the connection.
func (sc *serviceConn) prepareQuery(h header, payload []byte) (func(), error) {
	decStart := time.Now()
	pt, err := sc.sess.DecryptAppend(sc.ptBuf[:0], payload)
	decNS := int64(time.Since(decStart))
	mServeDecrypt.Observe(time.Duration(decNS))
	if err != nil {
		return nil, fmt.Errorf("query decrypt: %w", err)
	}
	sc.ptBuf = pt
	echo, rest, err := wire.ConsumeUint64(pt)
	if err != nil {
		return nil, fmt.Errorf("query record: %w", err)
	}
	qb, rest, err := wire.ConsumeBytes(rest, maxServiceQueryLen)
	if err != nil {
		return nil, fmt.Errorf("query record: %w", err)
	}
	if len(rest) != 0 {
		return nil, errors.New("query record: trailing bytes")
	}
	if echo != h.stream {
		return nil, fmt.Errorf("%w: record says %d, frame says %d", ErrStreamEcho, echo, h.stream)
	}
	query := string(qb) // copied out of the scratch before the next decrypt
	stream := h.stream
	return func() { sc.answer(stream, query, decNS) }, nil
}

// answer runs the engine and sends the sealed answer. Encryption happens
// under the connection write lock (writeSealedFrame), so concurrent answers
// keep record order equal to socket order. decNS is the read-loop decrypt
// cost carried over from prepareQuery so the serve trace covers the full
// lifecycle.
func (sc *serviceConn) answer(stream uint64, query string, decNS int64) {
	engStart := time.Now()
	results, err := sc.svc.Backend.Search(sc.svc.Source, query, time.Now())
	engNS := int64(time.Since(engStart))
	mServeEngine.Observe(time.Duration(engNS))
	sealStart := time.Now()
	buf := getFrame()
	pt := appendAnswer((*buf)[:0], stream, results, err)
	*buf = pt
	werr := sc.fc.writeSealedFrame(sc.sess, frameAnswer, stream, pt)
	sealNS := int64(time.Since(sealStart))
	mServeSeal.Observe(time.Duration(sealNS))
	outcome, ctr := serveOutcomeOK, mServeOK
	if err != nil {
		outcome, ctr = serveOutcomeEngineError, mServeEngineError
	}
	ctr.Inc()
	telemetry.Traces().Record(telemetry.Trace{
		Op:            "serve",
		Peer:          sc.peer,
		Outcome:       outcome,
		StartUnixNano: engStart.UnixNano(),
		TotalNS:       decNS + engNS + sealNS,
		DecryptNS:     decNS,
		EngineNS:      engNS,
		SealNS:        sealNS,
	})
	if werr != nil {
		// The answer could not be queued (poisoned connection, closed
		// session) or its flush failed: cut the connection so the read loop
		// stops feeding the engine.
		sc.fc.Close()
	}
	putFrame(buf)
}

// appendAnswer encodes one answer record body: stream(8B) engineErr(str)
// resultsPage.
func appendAnswer(pt []byte, stream uint64, results []searchengine.Result, err error) []byte {
	pt = binary.BigEndian.AppendUint64(pt, stream)
	if err != nil {
		msg := err.Error()
		if len(msg) > maxErrMsgLen {
			msg = msg[:maxErrMsgLen]
		}
		pt = wire.AppendString(pt, msg)
		return searchengine.AppendResults(pt, nil)
	}
	pt = wire.AppendString(pt, "")
	return searchengine.AppendResults(pt, searchengine.ClampForWire(results))
}

// close closes the responder session half. Called on connection teardown —
// this is what keeps a dropped TCP connection from leaking nonce state into
// the next one.
func (sc *serviceConn) close() {
	if sc.sess != nil {
		sc.sess.Close()
	}
}

// --- client -----------------------------------------------------------------

// ClientConfig configures a service client.
type ClientConfig struct {
	// ID is the identity announced in the hello preamble (defaults to the
	// local socket address).
	ID string
	// MaxFrame bounds a frame payload (default DefaultMaxFrame).
	MaxFrame int
	// DialTimeout bounds dial + hello + attestation (default 5 s).
	DialTimeout time.Duration
	// RequestTimeout bounds one query round trip (default 15 s).
	RequestTimeout time.Duration
}

func (cfg *ClientConfig) applyDefaults() {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = DefaultMaxFrame
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
}

// Client is the dialer half of the attested query plane: one connection,
// one attested session, many concurrent queries multiplexed over it as
// query/answer frames.
type Client struct {
	fc       *frameConn
	sess     *securechan.Session
	serverID string
	timeout  time.Duration

	st streamTable[qResult] // the same multiplexing core the pool uses

	// timeouts counts consecutive query timeouts; a session whose answer
	// direction silently died is torn down after maxConsecutiveTimeouts so
	// the caller redials instead of blackholing forever. Any answered query
	// resets it.
	timeouts atomic.Int32

	ptBuf []byte // reader-goroutine owned
}

// qResult is one answered (or failed) query.
type qResult struct {
	results   []searchengine.Result
	engineErr string
	err       error
}

// DialService connects to a relay daemon, runs the hello preamble and the
// attested key exchange (initiator role), and starts the multiplexing
// reader.
func DialService(addr string, hs *securechan.Handshaker, cfg ClientConfig) (*Client, error) {
	c, err := dialService(addr, hs, cfg)
	if err != nil {
		mDialError.Inc()
		return nil, err
	}
	mDialOK.Inc()
	return c, nil
}

func dialService(addr string, hs *securechan.Handshaker, cfg ClientConfig) (*Client, error) {
	cfg.applyDefaults()
	nc, err := net.DialTimeout("tcp", addr, cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("nettrans: dial %s: %w", addr, err)
	}
	fc := newFrameConn(nc, cfg.MaxFrame, writeOptions{})
	id := cfg.ID
	if id == "" {
		id = nc.LocalAddr().String()
	}
	if err := fc.sendHello(id); err != nil {
		nc.Close()
		return nil, fmt.Errorf("nettrans: hello: %w", err)
	}
	serverID, err := fc.expectHello(cfg.DialTimeout)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("nettrans: hello: %w", err)
	}

	offer, err := hs.Offer()
	if err != nil {
		nc.Close()
		return nil, err
	}
	raw, err := offer.Marshal()
	if err != nil {
		nc.Close()
		return nil, err
	}
	if err := fc.writeFrame(frameAttest, 0, raw); err != nil {
		nc.Close()
		return nil, fmt.Errorf("nettrans: send offer: %w", err)
	}
	h, buf, err := fc.readFrame(cfg.DialTimeout)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("nettrans: read attestation reply: %w", err)
	}
	if h.typ == frameErr {
		_, msg, derr := decodeErrPayload(*buf)
		reason := string(msg) // msg aliases buf: copy before the release
		putFrame(buf)
		nc.Close()
		if derr != nil {
			return nil, ErrAttestRejected
		}
		return nil, fmt.Errorf("%w: %s", ErrAttestRejected, reason)
	}
	if h.typ != frameAttest {
		putFrame(buf)
		nc.Close()
		return nil, fmt.Errorf("nettrans: expected attest reply, got frame type %d", h.typ)
	}
	peerMsg, err := securechan.UnmarshalHandshakeMsg(*buf)
	putFrame(buf)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("%w: %v", ErrAttestRejected, err)
	}
	sess, err := hs.Establish(peerMsg, true)
	if err != nil {
		// The transport worked; the peer's evidence did not verify. Callers
		// (the membership directory) blacklist on this, merely retry on
		// transport failures.
		nc.Close()
		return nil, fmt.Errorf("%w: %v", ErrAttestRejected, err)
	}

	c := &Client{
		fc:       fc,
		sess:     sess,
		serverID: serverID,
		timeout:  cfg.RequestTimeout,
	}
	go c.readLoop()
	return c, nil
}

// ServerID returns the identity the server announced in its hello.
func (c *Client) ServerID() string { return c.serverID }

// PeerMeasurement returns the attested code identity of the relay enclave.
func (c *Client) PeerMeasurement() string { return c.sess.PeerMeasurement().String() }

// Query submits one query over the attested session and waits for its
// answer. Safe for concurrent use: queries multiplex over the connection
// via stream IDs, so many can be in flight at once.
func (c *Client) Query(query string) ([]searchengine.Result, error) {
	if len(query) > maxServiceQueryLen {
		return nil, fmt.Errorf("nettrans: query %d bytes exceeds %d", len(query), maxServiceQueryLen)
	}
	id, ch, err := c.st.register()
	if err != nil {
		return nil, err
	}

	buf := getFrame()
	pt := binary.BigEndian.AppendUint64((*buf)[:0], id)
	pt = wire.AppendString(pt, query)
	*buf = pt
	err = c.fc.writeSealedFrame(c.sess, frameQuery, id, pt)
	putFrame(buf)
	if err != nil {
		c.st.unregister(id)
		c.fail(fmt.Errorf("nettrans: query write: %w", err))
		return nil, err
	}

	t := workers.GetTimer(c.timeout)
	defer workers.PutTimer(t)
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, res.err
		}
		c.timeouts.Store(0)
		if res.engineErr != "" {
			// Classify from the wire string: the taxonomy sentinels
			// (overloaded / timeout / breaker-open) survive the trip, so
			// callers can errors.Is both ErrEngineRefused and the class.
			return nil, fmt.Errorf("%w: %w", ErrEngineRefused, backend.FromWire(res.engineErr))
		}
		return res.results, nil
	case <-t.C:
		if c.st.unregister(id) == nil {
			<-ch // delivered concurrently; nothing pooled to release
		} else if c.timeouts.Add(1) >= maxConsecutiveTimeouts {
			c.fail(fmt.Errorf("nettrans: session stopped answering (%d consecutive timeouts)", maxConsecutiveTimeouts))
		}
		return nil, fmt.Errorf("nettrans: query timed out after %s", c.timeout)
	}
}

// fail tears the client down: every pending and future query fails, and the
// session half is closed so nonce state cannot outlive the connection.
func (c *Client) fail(err error) {
	if c.st.close(err, func(e error) qResult { return qResult{err: e} }) {
		c.sess.Close()
		c.fc.Close()
	}
}

// Close shuts the client down.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return nil
}

// readLoop decrypts answers in arrival order (the session requires it) and
// routes them to their pending queries by stream ID.
func (c *Client) readLoop() {
	for {
		h, buf, err := c.fc.readFrame(0)
		if err != nil {
			c.fail(fmt.Errorf("nettrans: connection lost: %w", err))
			return
		}
		switch h.typ {
		case frameAnswer:
			pt, err := c.sess.DecryptAppend(c.ptBuf[:0], *buf)
			putFrame(buf)
			if err != nil {
				c.fail(fmt.Errorf("nettrans: answer decrypt: %w", err))
				return
			}
			c.ptBuf = pt
			res, echo, err := decodeAnswer(pt)
			if err != nil {
				c.fail(fmt.Errorf("nettrans: bad answer record: %w", err))
				return
			}
			if echo != h.stream {
				c.fail(fmt.Errorf("%w: record says %d, frame says %d", ErrStreamEcho, echo, h.stream))
				return
			}
			c.st.deliver(h.stream, res)
		case frameErr:
			code, msg, derr := decodeErrPayload(*buf)
			// msg aliases buf: build the error before the release.
			var res qResult
			switch {
			case derr != nil:
				res.err = fmt.Errorf("nettrans: server rejected query")
			case code == errCodeThrottled:
				// Typed so callers can errors.Is(err,
				// accounting.ErrClientThrottled) and back off instead of
				// retrying or redialing.
				res.err = fmt.Errorf("nettrans: %w: %s", accounting.ErrClientThrottled, msg)
			default:
				res.err = fmt.Errorf("nettrans: server rejected query: %s", msg)
			}
			putFrame(buf)
			c.st.deliver(h.stream, res)
		case frameGoaway:
			putFrame(buf)
			// The server finishes pending work; new queries need a new
			// connection. Mark nothing here — the connection close that
			// follows the drain fails the client.
		case frameHello:
			putFrame(buf)
		default:
			putFrame(buf)
			c.fail(fmt.Errorf("nettrans: unexpected frame type %d", h.typ))
			return
		}
	}
}

// decodeAnswer parses one answer plaintext: echo(8B) engineErr(str)
// resultsPage. The results are copied out (they must survive the scratch).
func decodeAnswer(pt []byte) (qResult, uint64, error) {
	echo, rest, err := wire.ConsumeUint64(pt)
	if err != nil {
		return qResult{}, 0, err
	}
	msg, rest, err := wire.ConsumeBytes(rest, maxErrMsgLen)
	if err != nil {
		return qResult{}, 0, err
	}
	results, rest, err := searchengine.DecodeResults(rest)
	if err != nil {
		return qResult{}, 0, err
	}
	if len(rest) != 0 {
		return qResult{}, 0, errors.New("trailing bytes")
	}
	return qResult{results: results, engineErr: string(msg)}, echo, nil
}
