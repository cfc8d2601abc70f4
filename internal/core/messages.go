package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"cyclosa/internal/searchengine"
	"cyclosa/internal/wire"
)

// Wire format. Every message of the forward hot path — the padded forward
// request, the forward response, and the ecall/ocall gate frames — uses a
// compact length-prefixed binary layout instead of JSON, so that a steady
// stream of relayed queries crosses the enclave boundary without reflection
// or per-field allocation (X-Search measured exactly this host-side
// serialization, not the AEAD, as the SGX proxy bottleneck).
//
// All frames open with a 1-byte version. Varints are encoding/binary
// unsigned LEB128; fixed 64-bit fields are big-endian. Strings and byte
// fields are length-prefixed. Layouts (version 1):
//
//	request  := ver(1B) requestID(8B) query(str)
//	response := ver(1B) requestID(8B) engineError(str) resultPage
//	fwdArgs  := ver(1B) nowNano(8B) from(str) payload(bytes)   — "forward" ecall
//	engArgs  := ver(1B) nowNano(8B) source(str) query(str)     — "engine" ocall
//	str/bytes := len(uvarint) payload
//
// resultPage is the searchengine binary result-page encoding; the "engine"
// ocall returns one verbatim, and the "forward" ecall splices it into the
// response without re-encoding. Decoding rejects unknown versions,
// truncated frames, oversized length fields and trailing garbage before any
// allocation happens.

// wireVersion is the current frame version; bump on any layout change.
const wireVersion = 1

// Decode bounds. A frame claiming a longer field is rejected as corrupt.
const (
	// maxWireQueryLen bounds a query (real-world queries are < 1 KB).
	maxWireQueryLen = 8 << 10
	// maxWireIDLen bounds a node identifier.
	maxWireIDLen = 1 << 10
	// maxWirePayloadLen bounds an encrypted record crossing the gate.
	maxWirePayloadLen = 1 << 20
	// maxWireErrLen bounds an engine error string.
	maxWireErrLen = 4 << 10
)

// Wire-codec errors. Truncation and oversize are the shared wire-level
// errors (aliased so errors.Is matches across packages).
var (
	ErrWireTruncated = wire.ErrTruncated
	ErrWireOversize  = wire.ErrOversize
	ErrWireVersion   = errors.New("core: unknown wire frame version")
	ErrWireTrailing  = errors.New("core: trailing bytes after wire frame")
)

// requestPadSize is the fixed on-wire plaintext size of a forward request.
// §IV's traffic argument requires that an external observer of the
// (encrypted) links cannot tell real queries, fake queries and forwarded
// queries apart; with length-prefixed padding to a constant size, every
// request record has the identical length regardless of the query inside.
// 512 bytes comfortably holds any real-world search query.
const requestPadSize = 512

// zeroPad is the shared padding source; appendPadded copies from it so the
// hot path never allocates a pad buffer.
var zeroPad [requestPadSize]byte

// padPlaintext wraps payload as [4-byte length | payload | zero padding] of
// exactly requestPadSize bytes (longer payloads are carried unpadded — the
// rare oversize query still works, at a distinguishability cost).
func padPlaintext(payload []byte) []byte {
	capHint := 4 + len(payload)
	if capHint < requestPadSize {
		capHint = requestPadSize
	}
	out := make([]byte, 0, capHint)
	out = append(out, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	return appendPadding(out)
}

// appendPadding zero-pads a [4-byte length | payload] buffer to
// requestPadSize and returns the extended slice (no-op when already at or
// beyond the pad size).
func appendPadding(buf []byte) []byte {
	if len(buf) < requestPadSize {
		buf = append(buf, zeroPad[:requestPadSize-len(buf)]...)
	}
	return buf
}

// unpadPlaintext reverses padPlaintext.
func unpadPlaintext(padded []byte) ([]byte, error) {
	if len(padded) < 4 {
		return nil, fmt.Errorf("padded message too short: %d bytes", len(padded))
	}
	n := binary.BigEndian.Uint32(padded)
	if int64(n) > int64(len(padded))-4 {
		return nil, fmt.Errorf("padded length %d exceeds message size %d", n, len(padded))
	}
	return padded[4 : 4+n], nil
}

// forwardRequest is the enclave-to-enclave message asking a relay to submit
// a query to the search engine on the sender's behalf. Real and fake
// queries use the identical message, so relays (and any traffic observer)
// cannot tell them apart (§IV) — unlike OR-group systems whose obfuscated
// messages are visibly larger than plain ones.
type forwardRequest struct {
	// Query is the search query to forward.
	Query string
	// RequestID is a random identifier echoed in the response; it lets the
	// client detect replays (§VI-b) and match responses to requests.
	RequestID uint64
}

// forwardResponse carries the search results back to the requesting node.
type forwardResponse struct {
	// RequestID echoes the request identifier.
	RequestID uint64
	// Results is the engine's result page.
	Results []searchengine.Result
	// EngineError is set when the engine refused the query (rate limited or
	// blocked); the results are then empty.
	EngineError string
}

// appendRequest appends the binary encoding of a forward request to dst.
func appendRequest(dst []byte, requestID uint64, query string) []byte {
	dst = append(dst, wireVersion)
	dst = binary.BigEndian.AppendUint64(dst, requestID)
	return appendWireString(dst, query)
}

// decodeRequestWire decodes a forward request. The returned query aliases
// data (zero copy); the caller must copy it before reusing the buffer.
func decodeRequestWire(data []byte) (requestID uint64, query []byte, err error) {
	data, err = consumeVersion(data)
	if err != nil {
		return 0, nil, err
	}
	requestID, data, err = consumeUint64(data)
	if err != nil {
		return 0, nil, err
	}
	query, data, err = consumeWireBytes(data, maxWireQueryLen)
	if err != nil {
		return 0, nil, err
	}
	if len(data) != 0 {
		return 0, nil, ErrWireTrailing
	}
	return requestID, query, nil
}

// appendResponseHeader appends the response frame up to (not including) the
// result page; the caller appends a searchengine binary result page — its
// own or one received verbatim from the engine ocall — to complete the
// frame.
func appendResponseHeader(dst []byte, requestID uint64, engineErr string) []byte {
	dst = append(dst, wireVersion)
	dst = binary.BigEndian.AppendUint64(dst, requestID)
	return appendWireString(dst, engineErr)
}

// decodeResponseWire decodes a full forward response. The result does not
// alias data. With discardPage the result page is validated exactly as
// decoding it would, but not materialised: Results stays nil.
func decodeResponseWire(data []byte, discardPage bool) (forwardResponse, error) {
	var resp forwardResponse
	data, err := consumeVersion(data)
	if err != nil {
		return resp, err
	}
	resp.RequestID, data, err = consumeUint64(data)
	if err != nil {
		return resp, err
	}
	engineErr, data, err := consumeWireBytes(data, maxWireErrLen)
	if err != nil {
		return resp, err
	}
	if len(engineErr) > 0 {
		resp.EngineError = string(engineErr)
	}
	if discardPage {
		data, err = searchengine.SkipResults(data)
	} else {
		resp.Results, data, err = searchengine.DecodeResults(data)
	}
	if err != nil {
		return resp, fmt.Errorf("core: response result page: %w", err)
	}
	if len(data) != 0 {
		return resp, ErrWireTrailing
	}
	return resp, nil
}

// appendForwardArgs appends the "forward" ecall gate frame to dst.
func appendForwardArgs(dst []byte, from string, payload []byte, nowNano int64) []byte {
	dst = append(dst, wireVersion)
	dst = binary.BigEndian.AppendUint64(dst, uint64(nowNano))
	dst = appendWireString(dst, from)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...)
}

// decodeForwardArgs decodes a "forward" ecall gate frame. The returned from
// and payload alias data.
func decodeForwardArgs(data []byte) (from, payload []byte, nowNano int64, err error) {
	data, err = consumeVersion(data)
	if err != nil {
		return nil, nil, 0, err
	}
	var now uint64
	now, data, err = consumeUint64(data)
	if err != nil {
		return nil, nil, 0, err
	}
	from, data, err = consumeWireBytes(data, maxWireIDLen)
	if err != nil {
		return nil, nil, 0, err
	}
	payload, data, err = consumeWireBytes(data, maxWirePayloadLen)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(data) != 0 {
		return nil, nil, 0, ErrWireTrailing
	}
	return from, payload, int64(now), nil
}

// appendEngineArgs appends the "engine" ocall gate frame to dst.
func appendEngineArgs(dst []byte, source string, query []byte, nowNano int64) []byte {
	dst = append(dst, wireVersion)
	dst = binary.BigEndian.AppendUint64(dst, uint64(nowNano))
	dst = appendWireString(dst, source)
	dst = binary.AppendUvarint(dst, uint64(len(query)))
	return append(dst, query...)
}

// decodeEngineArgs decodes an "engine" ocall gate frame. The returned
// source and query alias data.
func decodeEngineArgs(data []byte) (source, query []byte, nowNano int64, err error) {
	data, err = consumeVersion(data)
	if err != nil {
		return nil, nil, 0, err
	}
	var now uint64
	now, data, err = consumeUint64(data)
	if err != nil {
		return nil, nil, 0, err
	}
	source, data, err = consumeWireBytes(data, maxWireIDLen)
	if err != nil {
		return nil, nil, 0, err
	}
	query, data, err = consumeWireBytes(data, maxWireQueryLen)
	if err != nil {
		return nil, nil, 0, err
	}
	if len(data) != 0 {
		return nil, nil, 0, ErrWireTrailing
	}
	return source, query, int64(now), nil
}

// --- low-level consume helpers ---------------------------------------------

func consumeVersion(data []byte) ([]byte, error) {
	if len(data) < 1 {
		return nil, ErrWireTruncated
	}
	if data[0] != wireVersion {
		return nil, fmt.Errorf("%w: %d", ErrWireVersion, data[0])
	}
	return data[1:], nil
}

func consumeUint64(data []byte) (uint64, []byte, error) {
	return wire.ConsumeUint64(data)
}

func appendWireString(dst []byte, s string) []byte {
	return wire.AppendString(dst, s)
}

func consumeWireBytes(data []byte, max uint64) ([]byte, []byte, error) {
	return wire.ConsumeBytes(data, max)
}

// --- convenience wrappers (session setup, tests; not on the hot path) ------

func encodeRequest(r *forwardRequest) ([]byte, error) {
	if len(r.Query) > maxWireQueryLen {
		return nil, fmt.Errorf("%w: query %d bytes", ErrWireOversize, len(r.Query))
	}
	return appendRequest(nil, r.RequestID, r.Query), nil
}

func decodeRequest(data []byte) (*forwardRequest, error) {
	requestID, query, err := decodeRequestWire(data)
	if err != nil {
		return nil, fmt.Errorf("decode forward request: %w", err)
	}
	return &forwardRequest{Query: string(query), RequestID: requestID}, nil
}

func encodeResponse(r *forwardResponse) ([]byte, error) {
	if len(r.EngineError) > maxWireErrLen {
		return nil, fmt.Errorf("%w: engine error %d bytes", ErrWireOversize, len(r.EngineError))
	}
	out := appendResponseHeader(nil, r.RequestID, r.EngineError)
	return searchengine.AppendResults(out, r.Results), nil
}

func decodeResponse(data []byte) (*forwardResponse, error) {
	resp, err := decodeResponseWire(data, false)
	if err != nil {
		return nil, fmt.Errorf("decode forward response: %w", err)
	}
	return &resp, nil
}
