package searchengine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cyclosa/internal/wire"
)

// Binary result-page codec. Result pages cross two hot boundaries on every
// forwarded query — the engine ocall return and the encrypted forward
// response — so they are encoded with a compact length-prefixed binary
// format instead of JSON. Layout (all varints are unsigned LEB128 as in
// encoding/binary, scores are IEEE-754 bits big-endian):
//
//	page   := version(1B) count(uvarint) result*
//	result := docID(varint) url(str) title(str) nTerms(uvarint) term* score(8B)
//	str    := len(uvarint) bytes
//
// Decoding is hardened: truncated input, unknown versions and any length
// field beyond the Max* bounds below are rejected before allocation. A
// reader that will not look at a page validates it with SkipResults instead
// of decoding it.

// ResultsWireVersion is the result-page wire version; bump on layout change.
const ResultsWireVersion = 1

// Decode bounds: a frame claiming more than these is rejected as corrupt
// (a genuine page is ~10 results of short strings).
const (
	// MaxWireResults bounds the result count of one page.
	MaxWireResults = 4096
	// MaxWireStringLen bounds any URL, title or term.
	MaxWireStringLen = 16 << 10
	// MaxWireTerms bounds the term list of one result.
	MaxWireTerms = 4096
)

// Result-codec errors. Truncation and oversize are the shared wire-level
// errors (aliased so errors.Is matches across packages).
var (
	ErrWireTruncated = wire.ErrTruncated
	ErrWireOversize  = wire.ErrOversize
	ErrWireVersion   = errors.New("searchengine: unknown result page version")
)

// AppendResults appends the binary encoding of a result page to dst and
// returns the extended slice. A nil/empty page encodes to the 2-byte header.
func AppendResults(dst []byte, results []Result) []byte {
	dst = append(dst, ResultsWireVersion)
	dst = binary.AppendUvarint(dst, uint64(len(results)))
	for i := range results {
		r := &results[i]
		dst = binary.AppendVarint(dst, int64(r.DocID))
		dst = wire.AppendString(dst, r.URL)
		dst = wire.AppendString(dst, r.Title)
		dst = binary.AppendUvarint(dst, uint64(len(r.Terms)))
		for _, t := range r.Terms {
			dst = wire.AppendString(dst, t)
		}
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Score))
	}
	return dst
}

// ClampForWire bounds a result page to what the wire format can carry, so
// an arbitrary Backend cannot make an honest relay emit a response its
// client's decoder rejects: the page is cut to MaxWireResults and any
// result with a string beyond MaxWireStringLen or more than MaxWireTerms
// terms is dropped. The common case (every bound respected) returns the
// slice unchanged without copying.
func ClampForWire(results []Result) []Result {
	if len(results) > MaxWireResults {
		results = results[:MaxWireResults]
	}
	for i := range results {
		if !wireSafe(&results[i]) {
			// Slow path: rebuild without the offending results.
			out := make([]Result, 0, len(results))
			for j := range results {
				if wireSafe(&results[j]) {
					out = append(out, results[j])
				}
			}
			return out
		}
	}
	return results
}

func wireSafe(r *Result) bool {
	if len(r.URL) > MaxWireStringLen || len(r.Title) > MaxWireStringLen || len(r.Terms) > MaxWireTerms {
		return false
	}
	for _, t := range r.Terms {
		if len(t) > MaxWireStringLen {
			return false
		}
	}
	return true
}

// measureResults walks one result page at the front of data and applies
// every check of the format (version, bounds, truncation) without
// allocating. It returns the page's result count, the total length of its
// term lists and the unconsumed remainder.
func measureResults(data []byte) (nResults, nTerms int, rest []byte, err error) {
	if len(data) < 1 {
		return 0, 0, nil, ErrWireTruncated
	}
	if data[0] != ResultsWireVersion {
		return 0, 0, nil, fmt.Errorf("%w: %d", ErrWireVersion, data[0])
	}
	count, data, err := wire.ConsumeUvarint(data[1:], MaxWireResults)
	if err != nil {
		return 0, 0, nil, err
	}
	for i := uint64(0); i < count; i++ {
		if _, data, err = wire.ConsumeVarint(data); err != nil { // docID
			return 0, 0, nil, err
		}
		if _, data, err = wire.ConsumeBytes(data, MaxWireStringLen); err != nil { // url
			return 0, 0, nil, err
		}
		if _, data, err = wire.ConsumeBytes(data, MaxWireStringLen); err != nil { // title
			return 0, 0, nil, err
		}
		var terms uint64
		if terms, data, err = wire.ConsumeUvarint(data, MaxWireTerms); err != nil {
			return 0, 0, nil, err
		}
		nTerms += int(terms)
		for ; terms > 0; terms-- {
			if _, data, err = wire.ConsumeBytes(data, MaxWireStringLen); err != nil {
				return 0, 0, nil, err
			}
		}
		if _, data, err = wire.ConsumeUint64(data); err != nil { // score
			return 0, 0, nil, err
		}
	}
	return int(count), nTerms, data, nil
}

// SkipResults validates one result page at the front of data exactly as
// DecodeResults does — it accepts and rejects the same inputs — and returns
// the unconsumed remainder without materialising the page or allocating. It
// is what a reader uses on a page it has to check but will not look at.
func SkipResults(data []byte) ([]byte, error) {
	_, _, rest, err := measureResults(data)
	return rest, err
}

// DecodeResults decodes one result page from the front of data, returning
// the page, the unconsumed remainder and any error. The returned results do
// not alias data, so the caller may reuse the buffer. A page costs three
// allocations whatever its size: one string holding a copy of the page's
// bytes, which every URL, title and term is a substring of, one []Result,
// and one []string that all Terms lists are cut from. Holding on to any one
// string of a page therefore keeps the whole page's bytes alive. A
// zero-count page decodes to a nil slice.
func DecodeResults(data []byte) ([]Result, []byte, error) {
	nResults, nTerms, rest, err := measureResults(data)
	if err != nil {
		return nil, nil, err
	}
	if nResults == 0 {
		return nil, rest, nil
	}
	// measureResults accepted the page, so this second walk cannot run off
	// its end or meet a length beyond a bound.
	page := string(data[:len(data)-len(rest)])
	off := 1 // past the version
	uvarint := func() int {
		v, n := binary.Uvarint(data[off:])
		off += n
		return int(v)
	}
	str := func() string {
		n := uvarint()
		off += n
		return page[off-n : off]
	}
	uvarint() // past the count
	results := make([]Result, nResults)
	var terms []string
	if nTerms > 0 {
		terms = make([]string, nTerms)
	}
	for i := range results {
		r := &results[i]
		docID, n := binary.Varint(data[off:])
		off += n
		r.DocID = int(docID)
		r.URL = str()
		r.Title = str()
		if n := uvarint(); n > 0 {
			// Capacity capped: appending to one result's Terms must not
			// overwrite the next result's.
			r.Terms, terms = terms[:n:n], terms[n:]
			for j := range r.Terms {
				r.Terms[j] = str()
			}
		}
		r.Score = math.Float64frombits(binary.BigEndian.Uint64(data[off:]))
		off += 8
	}
	return results, rest, nil
}
