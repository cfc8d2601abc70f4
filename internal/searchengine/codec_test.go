package searchengine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"cyclosa/internal/testutil"
	"cyclosa/internal/wire"
)

func sampleResults() []Result {
	return []Result{
		{DocID: 12, URL: "https://web.sim/travel/12", Title: "alpha beta", Terms: []string{"alpha", "beta", "gamma"}, Score: 7.125},
		{DocID: 0, URL: "https://web.sim/pets/0", Title: "", Terms: nil, Score: -2.5},
		{DocID: -3, URL: "", Title: "only title", Terms: []string{""}, Score: 0},
	}
}

// realPage is a page of the size a relay really carries: 10 results whose
// documents hold 20–39 terms each, as the engine's do (305 terms in all),
// titled by their first four terms.
func realPage() []Result {
	vocab := []string{"kidney", "dialysis", "treatment", "renal", "failure", "clinic",
		"nephrology", "transplant", "donor", "blood", "pressure", "filtration",
		"chronic", "disease", "stage", "diet", "potassium", "creatinine", "urine", "symptoms"}
	page := make([]Result, 10)
	for i := range page {
		terms := make([]string, 20+i*13%20)
		for j := range terms {
			terms[j] = vocab[(i*7+j)%len(vocab)]
		}
		page[i] = Result{
			DocID: 1000 + i,
			URL:   fmt.Sprintf("https://web.sim/health/%d", 1000+i),
			Title: strings.Join(terms[:4], " "),
			Terms: terms,
			Score: 9.5 - float64(i)/4,
		}
	}
	return page
}

func TestResultsCodecRoundTrip(t *testing.T) {
	for _, results := range [][]Result{nil, {}, sampleResults()} {
		blob := AppendResults(nil, results)
		got, rest, err := DecodeResults(blob)
		if err != nil {
			t.Fatal(err)
		}
		if len(rest) != 0 {
			t.Errorf("unconsumed bytes: %d", len(rest))
		}
		if len(got) != len(results) {
			t.Fatalf("count: got %d, want %d", len(got), len(results))
		}
		for i := range got {
			g, w := got[i], results[i]
			if g.DocID != w.DocID || g.URL != w.URL || g.Title != w.Title || g.Score != w.Score {
				t.Errorf("result %d: got %+v, want %+v", i, g, w)
			}
			if len(g.Terms) != len(w.Terms) {
				t.Fatalf("result %d terms: got %d, want %d", i, len(g.Terms), len(w.Terms))
			}
			for j := range g.Terms {
				if g.Terms[j] != w.Terms[j] {
					t.Errorf("result %d term %d: got %q, want %q", i, j, g.Terms[j], w.Terms[j])
				}
			}
		}
	}
}

func TestResultsCodecEmbedded(t *testing.T) {
	// A page followed by trailing bytes: DecodeResults consumes exactly the
	// page (the core response codec relies on this).
	blob := AppendResults(nil, sampleResults())
	blob = append(blob, 0xDE, 0xAD)
	_, rest, err := DecodeResults(blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 2 || rest[0] != 0xDE {
		t.Errorf("remainder: got %x", rest)
	}
}

func TestResultsCodecRejectsBadFrames(t *testing.T) {
	good := AppendResults(nil, sampleResults())
	for i := 0; i < len(good); i++ {
		if _, _, err := DecodeResults(good[:i]); err == nil {
			// A truncation may still parse if it cuts exactly at a result
			// boundary and the count were smaller — but the count is fixed
			// up front, so every prefix must fail.
			t.Errorf("truncated page of %d bytes accepted", i)
		}
	}
	bad := append([]byte{}, good...)
	bad[0] = 0xEE
	if _, _, err := DecodeResults(bad); !errors.Is(err, ErrWireVersion) {
		t.Errorf("unknown version: got %v", err)
	}
	// A count field claiming 2^40 results must be rejected before any
	// allocation.
	huge := []byte{ResultsWireVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x3F}
	if _, _, err := DecodeResults(huge); !errors.Is(err, wire.ErrOversize) {
		t.Errorf("oversized count: got %v", err)
	}
}

// AppendResults bounds the page to the wire format as it encodes: a result
// beyond a bound is dropped, the rest survive, and the output decodes.
func TestAppendResultsClampsToWireBounds(t *testing.T) {
	ok := sampleResults()
	want := AppendResults(nil, ok)
	over := func(r Result) []Result { return append([]Result{r}, ok...) }
	tooManyTerms := make([]string, MaxWireTerms+1)
	for _, tc := range []struct {
		name string
		page []Result
	}{
		{"oversize url", over(Result{DocID: 1, URL: strings.Repeat("x", MaxWireStringLen+1)})},
		{"oversize title", over(Result{DocID: 1, Title: strings.Repeat("x", MaxWireStringLen+1)})},
		{"oversize term", over(Result{DocID: 1, Terms: []string{"a", strings.Repeat("x", MaxWireStringLen+1)}})},
		{"too many terms", over(Result{DocID: 1, Terms: tooManyTerms})},
		{"unsafe last", append(sampleResults(), Result{URL: strings.Repeat("x", MaxWireStringLen+1)})},
	} {
		blob := AppendResults([]byte{0xAB}, tc.page)
		if blob[0] != 0xAB {
			t.Fatalf("%s: the clamped page overwrote what dst held", tc.name)
		}
		if !bytes.Equal(blob[1:], want) {
			t.Errorf("%s: encoded %x, want the safe results alone %x", tc.name, blob[1:], want)
		}
		if _, rest, err := DecodeResults(blob[1:]); err != nil || len(rest) != 0 {
			t.Errorf("%s: clamped page does not round-trip: %v (%d bytes left)", tc.name, err, len(rest))
		}
	}

	// Strings at the bound are carried.
	edge := []Result{{URL: strings.Repeat("u", MaxWireStringLen), Title: strings.Repeat("t", 128), Terms: []string{strings.Repeat("x", 127)}}}
	if got, _, err := DecodeResults(AppendResults(nil, edge)); err != nil || !reflect.DeepEqual(got, edge) {
		t.Errorf("page at the bounds: err %v, round trip equal %v", err, reflect.DeepEqual(got, edge))
	}

	// An oversize page is cut to the bound.
	many := make([]Result, MaxWireResults+10)
	got, _, err := DecodeResults(AppendResults(nil, many))
	if err != nil || len(got) != MaxWireResults {
		t.Errorf("oversize page decodes to %d results (%v), want %d", len(got), err, MaxWireResults)
	}
}

func TestResultsCodecAllocsOnEmptyPage(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	dst := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(200, func() {
		dst = AppendResults(dst[:0], nil)
	}); n != 0 {
		t.Errorf("AppendResults(nil page) allocates %.1f times, want 0", n)
	}
	empty := AppendResults(nil, nil)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeResults(empty); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeResults(empty page) allocates %.1f times, want 0", n)
	}
}

// The page decode costs a fixed three allocations however many strings the
// page holds, and validating a page without decoding it costs none.
func TestResultsCodecAllocsOnRealPage(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	blob := AppendResults(nil, realPage())
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := DecodeResults(blob); err != nil {
			t.Fatal(err)
		}
	}); n != 3 {
		t.Errorf("DecodeResults(real page) allocates %.1f times, want 3", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := SkipResults(blob); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SkipResults(real page) allocates %.1f times, want 0", n)
	}
}

// The decoded page shares one backing string and one terms array, but none
// of it with the input buffer or between results.
func TestDecodeResultsOwnsItsMemory(t *testing.T) {
	want := realPage()
	blob := AppendResults(nil, want)
	got, _, err := DecodeResults(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range blob {
		blob[i] = 0xFF // the caller reuses its buffer
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("page changed with the input buffer:\n got %+v\nwant %+v", got, want)
	}
	_ = append(got[0].Terms, "appended")
	if !reflect.DeepEqual(got[1].Terms, want[1].Terms) {
		t.Errorf("appending to result 0's terms overwrote result 1's: %v", got[1].Terms)
	}
}

// checkSkipMatchesDecode is the SkipResults contract: it accepts and rejects
// exactly what DecodeResults does, with the same error and remainder.
func checkSkipMatchesDecode(t *testing.T, data []byte) {
	t.Helper()
	_, decRest, decErr := DecodeResults(data)
	skipRest, skipErr := SkipResults(data)
	if fmt.Sprint(decErr) != fmt.Sprint(skipErr) {
		t.Fatalf("DecodeResults err %v, SkipResults err %v", decErr, skipErr)
	}
	if !bytes.Equal(decRest, skipRest) {
		t.Fatalf("DecodeResults left %d bytes, SkipResults %d", len(decRest), len(skipRest))
	}
}

func TestSkipResultsMatchesDecode(t *testing.T) {
	good := AppendResults(nil, sampleResults())
	for i := 0; i <= len(good); i++ {
		checkSkipMatchesDecode(t, good[:i])
	}
	checkSkipMatchesDecode(t, append(append([]byte{}, good...), 0xDE, 0xAD))
	checkSkipMatchesDecode(t, AppendResults(nil, nil))
	checkSkipMatchesDecode(t, []byte{0xEE})
	checkSkipMatchesDecode(t, []byte{ResultsWireVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x3F})
}

// FuzzResultsSkip is the differential target for the validating walk fake
// responses get: on arbitrary bytes SkipResults must agree with
// DecodeResults on accept/reject and on the remainder.
func FuzzResultsSkip(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendResults(nil, nil))
	f.Add(AppendResults(nil, sampleResults()))
	f.Add(append(AppendResults(nil, realPage()), 0x01))
	f.Fuzz(checkSkipMatchesDecode)
}

// FuzzResultsDecode hammers the page decoder with arbitrary bytes: it must
// never panic, and whatever decodes must re-encode and decode to the same
// page.
func FuzzResultsDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendResults(nil, nil))
	f.Add(AppendResults(nil, sampleResults()))
	f.Fuzz(func(t *testing.T, data []byte) {
		results, _, err := DecodeResults(data)
		if err != nil {
			return
		}
		re := AppendResults(nil, results)
		got, rest, err := DecodeResults(re)
		if err != nil || len(rest) != 0 || len(got) != len(results) {
			t.Fatalf("re-encode mismatch: %v (rest %d, got %d want %d)", err, len(rest), len(got), len(results))
		}
	})
}

// --- references ---------------------------------------------------------------

// refAppendPage is the encoder as it was before AppendResults checked the
// wire bounds while encoding: one wire.AppendString per string and no bound
// checked, so it also writes pages the decoder rejects.
func refAppendPage(dst []byte, results []Result) []byte {
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

// refAppendResults is what a relay encoded before: the page clamped to the
// wire bounds in a walk of its own, then encoded.
func refAppendResults(dst []byte, results []Result) []byte {
	return refAppendPage(dst, clampForWire(results))
}

// refMeasure is the validating walk as it was before measureResults read
// offsets inline: one wire.Consume* call per field.
func refMeasure(data []byte) (nResults, nTerms int, rest []byte, err error) {
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

// checkWalkMatchesReference: on data, the page walk and all three of its
// callers accept and reject what the reference walk does, with the same
// error and the same remainder. It returns the page DecodeResults made.
func checkWalkMatchesReference(t *testing.T, data []byte) []Result {
	t.Helper()
	wantResults, wantTerms, wantRest, wantErr := refMeasure(data)
	nResults, nTerms, rest, err := measureResults(data)
	for _, class := range []error{ErrWireTruncated, wire.ErrOversize, ErrWireVersion} {
		if errors.Is(err, class) != errors.Is(wantErr, class) {
			t.Fatalf("measureResults err %v, reference err %v", err, wantErr)
		}
	}
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("measureResults err %q, reference err %q", err, wantErr)
	}
	if nResults != wantResults || nTerms != wantTerms || !bytes.Equal(rest, wantRest) || len(rest) != len(wantRest) {
		t.Fatalf("measureResults: %d results, %d terms, %d bytes left; reference: %d, %d, %d",
			nResults, nTerms, len(rest), wantResults, wantTerms, len(wantRest))
	}
	checkSkipMatchesDecode(t, data)
	page, decRest, decErr := DecodeResults(data)
	if fmt.Sprint(decErr) != fmt.Sprint(wantErr) || len(decRest) != len(wantRest) || len(page) != wantResults {
		t.Fatalf("DecodeResults: %d results, %d bytes left, err %v; reference: %d, %d, %v",
			len(page), len(decRest), decErr, wantResults, len(wantRest), wantErr)
	}
	return page
}

// stretch returns page with one string replaced by a run of n bytes — the
// at'th of its URLs, titles and terms in wire order — or, with the top bit
// of at set, with one result given MaxWireTerms+1 terms.
func stretch(page []Result, n, at uint16) []Result {
	if len(page) == 0 {
		return page
	}
	page = append([]Result(nil), page...)
	if at&0x8000 != 0 {
		page[int(at&0x7fff)%len(page)].Terms = make([]string, MaxWireTerms+1)
		return page
	}
	if n == 0 {
		return page
	}
	long := strings.Repeat("x", int(n))
	slots := 0
	for i := range page {
		slots += 2 + len(page[i].Terms)
	}
	slot := int(at) % slots
	for i := range page {
		r := &page[i]
		switch {
		case slot == 0:
			r.URL = long
		case slot == 1:
			r.Title = long
		case slot < 2+len(r.Terms):
			r.Terms = append([]string(nil), r.Terms...)
			r.Terms[slot-2] = long
		default:
			slot -= 2 + len(r.Terms)
			continue
		}
		return page
	}
	return page
}

// FuzzResultsMatchReference is the differential oracle of the page codec.
// On arbitrary bytes the walk agrees with refMeasure: accept/reject, error
// and remainder. Whatever page the bytes decode to, stretched by one string
// of long bytes (or one result of too many terms), AppendResults writes
// exactly the bytes refAppendResults does, and its output decodes.
func FuzzResultsMatchReference(f *testing.F) {
	sample := refAppendPage(nil, sampleResults())
	edges := []Result{{DocID: 1, URL: strings.Repeat("u", 127), Title: strings.Repeat("t", 128),
		Terms: []string{strings.Repeat("a", MaxWireStringLen), strings.Repeat("b", MaxWireStringLen+1)}}}
	ids := []Result{{DocID: -1}, {DocID: math.MinInt64}, {DocID: math.MaxInt64}, {DocID: 1 << 40}, {DocID: -(1 << 40)}}
	urlStart := 1 + 1 + 1 + 1 // version, count, docID 12, URL length
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add(sample, uint16(0), uint16(0))
	f.Add(refAppendPage(nil, realPage()), uint16(0), uint16(0))
	f.Add(refAppendPage(nil, edges), uint16(0), uint16(0))       // the 16 KiB+1 term is oversize
	f.Add(refAppendPage(nil, edges[:0:0]), uint16(0), uint16(0)) // empty page
	f.Add(refAppendPage(nil, ids), uint16(0), uint16(0))
	urlLen := len(sampleResults()[0].URL)
	f.Add(sample[:urlStart+3], uint16(0), uint16(0))        // cut inside a one-byte-length URL
	f.Add(sample[:urlStart+urlLen-1], uint16(0), uint16(0)) // ... one byte short of its end
	f.Add(refAppendPage(nil, append(sampleResults(), Result{URL: strings.Repeat("x", MaxWireStringLen+1)})), uint16(0), uint16(0))
	for i, n := range []uint16{127, 128, MaxWireStringLen, MaxWireStringLen + 1} {
		f.Add(sample, n, uint16(i))
	}
	f.Add(sample, uint16(0), uint16(0x8001)) // one result with too many terms
	f.Fuzz(func(t *testing.T, data []byte, long, at uint16) {
		page := stretch(checkWalkMatchesReference(t, data), long, at)
		prefix := []byte{0xAB}
		got := AppendResults(prefix, page)
		want := refAppendResults(prefix, page)
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendResults wrote %d bytes, reference %d: %x vs %x", len(got), len(want), got, want)
		}
		if _, rest, err := DecodeResults(got[1:]); err != nil || len(rest) != 0 {
			t.Fatalf("AppendResults output does not decode: %v (%d bytes left)", err, len(rest))
		}
	})
}

// BenchmarkResultsCodec times the three page operations of a forward on a
// real page: the relay's encode, a fake's check, the real page's decode.
func BenchmarkResultsCodec(b *testing.B) {
	page := realPage()
	blob := AppendResults(nil, page)
	b.Run("AppendResults", func(b *testing.B) {
		dst := make([]byte, 0, len(blob))
		for i := 0; i < b.N; i++ {
			dst = AppendResults(dst[:0], page)
		}
	})
	b.Run("SkipResults", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := SkipResults(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DecodeResults", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := DecodeResults(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
