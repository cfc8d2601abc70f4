package core

import (
	"encoding/binary"
	"fmt"

	"cyclosa/internal/searchengine"
)

// The reference codecs tests build crafted frames with: whole-message
// encoders and decoders over the same wire format as the forward path's
// append and decode functions.

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

// encodeRequest encodes a forward request, refusing an oversize query.
func encodeRequest(r *forwardRequest) ([]byte, error) {
	if len(r.Query) > maxWireQueryLen {
		return nil, fmt.Errorf("%w: query %d bytes", ErrWireOversize, len(r.Query))
	}
	return appendRequest(nil, r.RequestID, []byte(r.Query)), nil
}

// decodeRequest decodes a forward request.
func decodeRequest(data []byte) (*forwardRequest, error) {
	requestID, query, err := decodeRequestWire(data)
	if err != nil {
		return nil, fmt.Errorf("decode forward request: %w", err)
	}
	return &forwardRequest{Query: string(query), RequestID: requestID}, nil
}

// encodeResponse encodes a forward response, refusing an oversize engine
// error.
func encodeResponse(r *forwardResponse) ([]byte, error) {
	if len(r.EngineError) > maxWireErrLen {
		return nil, fmt.Errorf("%w: engine error %d bytes", ErrWireOversize, len(r.EngineError))
	}
	out := appendResponseHeader(nil, r.RequestID, r.EngineError)
	return searchengine.AppendResults(out, r.Results), nil
}

// decodeResponse decodes a forward response, page included.
func decodeResponse(data []byte) (*forwardResponse, error) {
	resp, err := decodeResponseWire(data, false)
	if err != nil {
		return nil, fmt.Errorf("decode forward response: %w", err)
	}
	return &resp, nil
}
