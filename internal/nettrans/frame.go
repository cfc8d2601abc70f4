package nettrans

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"cyclosa/internal/wire"
)

// ProtoVersion is the frame protocol version; bump on any layout change.
// A connection speaking an unknown version is rejected at the first frame.
const ProtoVersion = 1

// Frame header layout: magic(2B) ver(1B) type(1B) streamID(8B) length(4B).
const (
	frameMagic0 = 0xC7
	frameMagic1 = 0x5A
	headerSize  = 16
)

// frameType tags a frame's payload semantics.
type frameType uint8

const (
	frameHello frameType = 1
	frameData  frameType = 2
	frameResp  frameType = 3
	frameErr   frameType = 4
	// frameAttest carries the attested key exchange of one (client, relay)
	// pair: from, to and the client's handshake offer out, the relay's offer
	// back on the same stream.
	frameAttest frameType = 5
	frameGoaway frameType = 8
	// frameGossip carries one membership view-exchange buffer (rps view wire
	// format) in each direction: the initiator's buffer out, the passive
	// side's reply back on the same stream. Added in PR 5 as a
	// backward-additive extension: the header layout is unchanged, a peer
	// that predates the type rejects the frame (and the connection) rather
	// than misparsing it.
	frameGossip frameType = 9
	// frameView is the membership introspection exchange: empty request out,
	// JSON ViewSnapshot back on the same stream.
	frameView frameType = 10
	// frameAccounting carries one misbehavior-ledger exchange (the
	// internal/accounting PN-counter wire format) in each direction: the
	// initiator's full ledger state out, the passive side's back on the same
	// stream; both sides merge what they received. Added in PR 8,
	// backward-additive like frameGossip: the header layout is unchanged and
	// an older peer rejects the type (and the connection) rather than
	// misparsing it.
	frameAccounting frameType = 13

	// frameTypeMax bounds the known types; anything above is rejected.
	frameTypeMax = frameAccounting
)

// maxGossipLen bounds a gossip or view frame payload: a view buffer is
// ViewSize/2 small descriptors, and a snapshot a few hundred bytes per peer.
const maxGossipLen = 256 << 10

// maxRecordLen bounds the encrypted record carried inside a data or resp
// frame — the securechan record bound.
const maxRecordLen = 1 << 20

// DefaultMaxFrame is the default frame payload limit: the 1 MiB encrypted
// record bound plus envelope slack (identifiers, timestamps, prefixes).
const DefaultMaxFrame = maxRecordLen + 4096

// maxNodeIDLen bounds a node identifier inside a frame.
const maxNodeIDLen = 1 << 10

// maxErrMsgLen bounds an error message inside an err frame.
const maxErrMsgLen = 4 << 10

// maxHandshakeLen bounds a marshalled handshake offer, in either direction
// of an attest exchange: it is parsed (JSON) before anything about the peer
// is verified, so it must not be allowed the whole frame limit.
const maxHandshakeLen = 64 << 10

// Frame protocol errors.
var (
	ErrBadMagic      = errors.New("nettrans: bad frame magic")
	ErrFrameVersion  = errors.New("nettrans: unknown frame protocol version")
	ErrFrameOversize = errors.New("nettrans: frame length exceeds limit")
	ErrFrameType     = errors.New("nettrans: unknown frame type")
)

// header is a decoded frame header.
type header struct {
	typ    frameType
	stream uint64
	length uint32
}

// putHeader encodes a frame header into dst.
func putHeader(dst *[headerSize]byte, typ frameType, stream uint64, length int) {
	dst[0] = frameMagic0
	dst[1] = frameMagic1
	dst[2] = ProtoVersion
	dst[3] = byte(typ)
	binary.BigEndian.PutUint64(dst[4:12], stream)
	binary.BigEndian.PutUint32(dst[12:16], uint32(length))
}

// parseHeader decodes and validates a frame header. The length bound is
// enforced here, before any allocation sized by the untrusted field.
func parseHeader(src *[headerSize]byte, maxFrame int) (header, error) {
	if src[0] != frameMagic0 || src[1] != frameMagic1 {
		return header{}, ErrBadMagic
	}
	if src[2] != ProtoVersion {
		return header{}, fmt.Errorf("%w: %d", ErrFrameVersion, src[2])
	}
	// 6 and 7 (the query/answer records of the single-hop relay service) and
	// 11 and 12 (its query-batch pair) are retired: reserved, never reused,
	// and refused like any unknown type, so a peer that still sends one loses
	// the connection rather than being misparsed.
	typ := frameType(src[3])
	if typ == 0 || typ > frameTypeMax || typ == 6 || typ == 7 || typ == 11 || typ == 12 {
		return header{}, fmt.Errorf("%w: %d", ErrFrameType, src[3])
	}
	h := header{
		typ:    typ,
		stream: binary.BigEndian.Uint64(src[4:12]),
		length: binary.BigEndian.Uint32(src[12:16]),
	}
	if int64(h.length) > int64(maxFrame) {
		return header{}, fmt.Errorf("%w: %d > %d", ErrFrameOversize, h.length, maxFrame)
	}
	return h, nil
}

// framePool recycles frame payload buffers (read buffers, encode scratch).
// Same ownership rule as core's bufpool: a buffer obtained with getFrame is
// owned by the holder until putFrame; slices derived from it die with it.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 2048)
		return &b
	},
}

func getFrame() *[]byte {
	return framePool.Get().(*[]byte)
}

func putFrame(b *[]byte) {
	framePool.Put(b)
}

// --- payload codecs ---------------------------------------------------------

// appendHelloPayload encodes a hello frame payload: proto(1B) id(str).
func appendHelloPayload(dst []byte, id string) []byte {
	dst = append(dst, ProtoVersion)
	return wire.AppendString(dst, id)
}

// decodeHelloPayload decodes a hello frame payload. The returned id aliases
// data.
func decodeHelloPayload(data []byte) (id []byte, err error) {
	if len(data) < 1 {
		return nil, wire.ErrTruncated
	}
	if data[0] != ProtoVersion {
		return nil, fmt.Errorf("%w: hello proto %d", ErrFrameVersion, data[0])
	}
	id, data, err = wire.ConsumeBytes(data[1:], maxNodeIDLen)
	if err != nil {
		return nil, err
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("nettrans: trailing bytes after hello")
	}
	return id, nil
}

// appendDataMeta encodes the data frame fields that precede the record:
// nowNano(8B) from(str) to(str) recordLen(uvarint). The record bytes follow
// verbatim on the wire, so the hot path never copies them into the meta
// buffer.
func appendDataMeta(dst []byte, nowNano int64, from, to string, recordLen int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(nowNano))
	dst = wire.AppendString(dst, from)
	dst = wire.AppendString(dst, to)
	return binary.AppendUvarint(dst, uint64(recordLen))
}

// decodeDataPayload decodes a data frame payload. from, to and record alias
// data.
func decodeDataPayload(data []byte) (nowNano int64, from, to, record []byte, err error) {
	now, data, err := wire.ConsumeUint64(data)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	from, to, record, err = decodePairPayload(data, maxRecordLen)
	return int64(now), from, to, record, err
}

// decodePairPayload decodes what a data frame (after its timestamp) and an
// attest frame have in common — from(str) to(str) body(bytes), nothing after
// it — refusing a body beyond maxBody. All three alias data.
func decodePairPayload(data []byte, maxBody uint64) (from, to, body []byte, err error) {
	from, data, err = wire.ConsumeBytes(data, maxNodeIDLen)
	if err != nil {
		return nil, nil, nil, err
	}
	to, data, err = wire.ConsumeBytes(data, maxNodeIDLen)
	if err != nil {
		return nil, nil, nil, err
	}
	body, data, err = wire.ConsumeBytes(data, maxBody)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(data) != 0 {
		return nil, nil, nil, errors.New("nettrans: trailing bytes after frame payload")
	}
	return from, to, body, nil
}

// appendRespMeta encodes the resp frame fields that precede the record:
// injectedNano(8B) recordLen(uvarint).
func appendRespMeta(dst []byte, injectedNano int64, recordLen int) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(injectedNano))
	return binary.AppendUvarint(dst, uint64(recordLen))
}

// decodeRespPayload decodes a resp frame payload. record aliases data.
func decodeRespPayload(data []byte) (injectedNano int64, record []byte, err error) {
	inj, data, err := wire.ConsumeUint64(data)
	if err != nil {
		return 0, nil, err
	}
	record, data, err = wire.ConsumeBytes(data, maxRecordLen)
	if err != nil {
		return 0, nil, err
	}
	if len(data) != 0 {
		return 0, nil, errors.New("nettrans: trailing bytes after resp frame")
	}
	return int64(inj), record, nil
}

// appendAttestPayload encodes an attest request payload: from(str) to(str)
// offer(bytes).
func appendAttestPayload(dst []byte, from, to string, offer []byte) []byte {
	dst = wire.AppendString(dst, from)
	dst = wire.AppendString(dst, to)
	return wire.AppendBytes(dst, offer)
}

// decodeAttestPayload decodes an attest request payload, refusing an offer
// beyond maxHandshakeLen. from, to and offer alias data.
func decodeAttestPayload(data []byte) (from, to, offer []byte, err error) {
	return decodePairPayload(data, maxHandshakeLen)
}

// Err frame failure codes, and what the conduit turns each into: unavailable
// is core.ErrRelayUnavailable (retry with a replacement relay, timeout
// charged); throttled is core.ErrRelayThrottled (the relay's per-client
// admission shed the record unopened — pair intact, nobody blacklisted);
// noSession is core.ErrNoSession (the relay holds no session for the sender —
// re-attest); busy is core.ErrRelayUnresolved (a live connection already owns
// the sender's session — skip the relay, nothing charged, nobody blacklisted);
// everything else is relay misbehavior (blacklist, no timeout).
const (
	errCodeUnavailable = 1
	errCodeRejected    = 2
	errCodeThrottled   = 3
	errCodeNoSession   = 4
	errCodeBusy        = 5
)

// appendErrPayload encodes an err frame payload: code(1B) msg(str).
func appendErrPayload(dst []byte, code byte, msg string) []byte {
	if len(msg) > maxErrMsgLen {
		msg = msg[:maxErrMsgLen]
	}
	dst = append(dst, code)
	return wire.AppendString(dst, msg)
}

// decodeErrPayload decodes an err frame payload. msg aliases data.
func decodeErrPayload(data []byte) (code byte, msg []byte, err error) {
	if len(data) < 1 {
		return 0, nil, wire.ErrTruncated
	}
	code = data[0]
	msg, data, err = wire.ConsumeBytes(data[1:], maxErrMsgLen)
	if err != nil {
		return 0, nil, err
	}
	if len(data) != 0 {
		return 0, nil, errors.New("nettrans: trailing bytes after err frame")
	}
	return code, msg, nil
}
