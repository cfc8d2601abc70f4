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

// Result-codec errors. Truncation is the shared wire-level error (aliased
// so errors.Is matches across packages); a length past a bound fails with
// wire.ErrOversize.
var (
	ErrWireTruncated = wire.ErrTruncated
	ErrWireVersion   = errors.New("searchengine: unknown result page version")
)

// AppendResults appends the binary encoding of a result page to dst and
// returns the extended slice. A nil/empty page encodes to the 2-byte header.
//
// The page is bounded to what the wire format can carry as it is encoded, so
// an arbitrary Backend cannot make an honest relay emit a response its
// client's decoder rejects: a page beyond MaxWireResults is cut to that many
// results, then any result with a string beyond MaxWireStringLen or more than
// MaxWireTerms terms is dropped. The output therefore always decodes. A page
// that respects every bound (the common case) is walked once; one that does
// not is encoded again, clamped, over the first attempt.
func AppendResults(dst []byte, results []Result) []byte {
	out, ok := appendPage(dst, results)
	if !ok {
		out, _ = appendPage(out[:len(dst)], clampForWire(results))
	}
	return out
}

// appendPage encodes results behind dst. It reports false, with the output
// unusable, as soon as it meets a bound the wire format does not allow.
func appendPage(dst []byte, results []Result) ([]byte, bool) {
	if len(results) > MaxWireResults {
		return dst, false
	}
	dst = append(dst, ResultsWireVersion)
	dst = binary.AppendUvarint(dst, uint64(len(results)))
	var ok bool
	for i := range results {
		r := &results[i]
		if len(r.Terms) > MaxWireTerms {
			return dst, false
		}
		dst = binary.AppendVarint(dst, int64(r.DocID))
		if dst, ok = appendString(dst, r.URL); !ok {
			return dst, false
		}
		if dst, ok = appendString(dst, r.Title); !ok {
			return dst, false
		}
		dst = binary.AppendUvarint(dst, uint64(len(r.Terms)))
		for _, t := range r.Terms {
			if dst, ok = appendString(dst, t); !ok {
				return dst, false
			}
		}
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(r.Score))
	}
	return dst, true
}

// appendString appends one length-prefixed string, reporting false if it is
// longer than MaxWireStringLen. A string under 128 bytes — every real URL,
// title and term — has a one-byte length and takes the inlined fast path.
func appendString(dst []byte, s string) ([]byte, bool) {
	if len(s) < 0x80 {
		return append(append(dst, byte(len(s))), s...), true
	}
	if len(s) > MaxWireStringLen {
		return dst, false
	}
	return wire.AppendString(dst, s), true
}

// clampForWire is the page AppendResults encodes when results break a wire
// bound: cut to MaxWireResults, then every result wireSafe rejects dropped.
// A page within every bound is returned unchanged without copying.
func clampForWire(results []Result) []Result {
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
// term lists and the unconsumed remainder. The walk moves an offset through
// data and reads a one-byte varint (every string length and term count of a
// real page) itself; a longer one is left to the wire package.
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
	off := 0
	for i := uint64(0); i < count; i++ {
		if off, err = skipVarint(data, off); err != nil { // docID
			return 0, 0, nil, err
		}
		if off, err = skipStrings(data, off, 2); err != nil { // url, title
			return 0, 0, nil, err
		}
		var terms int
		if terms, off, err = termCount(data, off); err != nil {
			return 0, 0, nil, err
		}
		nTerms += terms
		if off, err = skipStrings(data, off, terms); err != nil {
			return 0, 0, nil, err
		}
		if len(data)-off < 8 { // score
			return 0, 0, nil, ErrWireTruncated
		}
		off += 8
	}
	return int(count), nTerms, data[off:], nil
}

// skipVarint returns the offset past the signed varint at data[off:].
func skipVarint(data []byte, off int) (int, error) {
	if off < len(data) && data[off] < 0x80 {
		return off + 1, nil
	}
	_, rest, err := wire.ConsumeVarint(data[off:])
	return len(data) - len(rest), err
}

// skipStrings returns the offset past the n length-prefixed strings at
// data[off:], each no longer than MaxWireStringLen.
func skipStrings(data []byte, off, n int) (int, error) {
	for ; n > 0; n-- {
		if off < len(data) && data[off] < 0x80 {
			if off += 1 + int(data[off]); off > len(data) {
				return 0, ErrWireTruncated
			}
			continue
		}
		_, rest, err := wire.ConsumeBytes(data[off:], MaxWireStringLen)
		if err != nil {
			return 0, err
		}
		off = len(data) - len(rest)
	}
	return off, nil
}

// termCount reads the term count at data[off:] and returns it with the
// offset past it. A one-byte count is within MaxWireTerms.
func termCount(data []byte, off int) (int, int, error) {
	if off < len(data) && data[off] < 0x80 {
		return int(data[off]), off + 1, nil
	}
	n, rest, err := wire.ConsumeUvarint(data[off:], MaxWireTerms)
	return int(n), len(data) - len(rest), err
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
	_, off := uvarintAt(data, 1) // past the version and the count
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
		var urlTitle [2]string
		off = readStrings(page, data, off, urlTitle[:])
		r.URL, r.Title = urlTitle[0], urlTitle[1]
		var nt int
		if nt, off = uvarintAt(data, off); nt > 0 {
			// Capacity capped: appending to one result's Terms must not
			// overwrite the next result's.
			r.Terms, terms = terms[:nt:nt], terms[nt:]
			off = readStrings(page, data, off, r.Terms)
		}
		r.Score = math.Float64frombits(binary.BigEndian.Uint64(data[off:]))
		off += 8
	}
	return results, rest, nil
}

// uvarintAt reads the uvarint at data[off:] of a page measureResults
// accepted and returns it with the offset past it.
func uvarintAt(data []byte, off int) (int, int) {
	if b := data[off]; b < 0x80 {
		return int(b), off + 1
	}
	v, n := binary.Uvarint(data[off:])
	return int(v), off + n
}

// readStrings fills dst with the len(dst) length-prefixed strings at
// data[off:] of a page measureResults accepted, as substrings of page
// (data's copy), and returns the offset past them.
func readStrings(page string, data []byte, off int, dst []string) int {
	for i := range dst {
		n := int(data[off])
		if n < 0x80 {
			off++
		} else {
			n, off = uvarintAt(data, off)
		}
		dst[i] = page[off : off+n]
		off += n
	}
	return off
}
