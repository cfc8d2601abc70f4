package searchengine

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cyclosa/internal/testutil"
)

func sampleResults() []Result {
	return []Result{
		{DocID: 12, URL: "https://web.sim/travel/12", Title: "alpha beta", Terms: []string{"alpha", "beta", "gamma"}, Score: 7.125},
		{DocID: 0, URL: "https://web.sim/pets/0", Title: "", Terms: nil, Score: -2.5},
		{DocID: -3, URL: "", Title: "only title", Terms: []string{""}, Score: 0},
	}
}

// realPage is a page of the size a relay really carries: 10 results, 30
// terms in all.
func realPage() []Result {
	page := make([]Result, 10)
	for i := range page {
		page[i] = Result{
			DocID: 1000 + i,
			URL:   fmt.Sprintf("https://web.sim/health/%d", 1000+i),
			Title: fmt.Sprintf("kidney dialysis treatment %d", i),
			Terms: []string{"kidney", "dialysis", fmt.Sprintf("treatment%d", i)},
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
	if _, _, err := DecodeResults(huge); !errors.Is(err, ErrWireOversize) {
		t.Errorf("oversized count: got %v", err)
	}
}

func TestClampForWire(t *testing.T) {
	ok := sampleResults()
	if got := ClampForWire(ok); len(got) != len(ok) {
		t.Errorf("clamp dropped valid results: %d -> %d", len(ok), len(got))
	}

	// An oversize string is dropped, the rest survives, and the clamped
	// page must encode and decode cleanly.
	bad := append([]Result{{DocID: 1, URL: strings.Repeat("x", MaxWireStringLen+1)}}, sampleResults()...)
	got := ClampForWire(bad)
	if len(got) != len(bad)-1 {
		t.Fatalf("clamp kept %d of %d, want %d", len(got), len(bad), len(bad)-1)
	}
	if _, _, err := DecodeResults(AppendResults(nil, got)); err != nil {
		t.Errorf("clamped page does not round-trip: %v", err)
	}

	// An oversize page is cut to the bound.
	many := make([]Result, MaxWireResults+10)
	if got := ClampForWire(many); len(got) != MaxWireResults {
		t.Errorf("clamped count = %d, want %d", len(got), MaxWireResults)
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
		t.Errorf("DecodeResults(10-result page) allocates %.1f times, want 3", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := SkipResults(blob); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("SkipResults(10-result page) allocates %.1f times, want 0", n)
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
