package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"cyclosa/internal/searchengine"
	"cyclosa/internal/testutil"
)

// --- round trips ------------------------------------------------------------

func TestWireRequestRoundTrip(t *testing.T) {
	for _, q := range []string{"", "a", "private web search", strings.Repeat("long ", 100)} {
		frame := appendRequest(nil, 42, []byte(q))
		id, query, err := decodeRequestWire(frame)
		if err != nil {
			t.Fatalf("decode(%q): %v", q, err)
		}
		if id != 42 || string(query) != q {
			t.Errorf("round trip: got (%d, %q), want (42, %q)", id, query, q)
		}
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	results := []searchengine.Result{
		{DocID: 7, URL: "https://web.sim/travel/7", Title: "a b c", Terms: []string{"a", "b", "c"}, Score: 3.25},
		{DocID: -1, URL: "", Title: "", Terms: nil, Score: 0},
	}
	for _, tc := range []forwardResponse{
		{RequestID: 1, Results: results},
		{RequestID: 2, EngineError: "rate limited (captcha)"},
		{RequestID: 3},
	} {
		frame, err := encodeResponse(&tc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeResponseWire(frame, false)
		if err != nil {
			t.Fatal(err)
		}
		if got.RequestID != tc.RequestID || got.EngineError != tc.EngineError {
			t.Errorf("header round trip: got %+v, want %+v", got, tc)
		}
		// Discarding the page keeps the header and drops only the results.
		skipped, err := decodeResponseWire(frame, true)
		if err != nil {
			t.Fatal(err)
		}
		if skipped.RequestID != tc.RequestID || skipped.EngineError != tc.EngineError || skipped.Results != nil {
			t.Errorf("discard-page round trip: got %+v, want header of %+v and no results", skipped, tc)
		}
		if len(got.Results) != len(tc.Results) {
			t.Fatalf("results: got %d, want %d", len(got.Results), len(tc.Results))
		}
		for i := range got.Results {
			g, w := got.Results[i], tc.Results[i]
			if g.DocID != w.DocID || g.URL != w.URL || g.Title != w.Title || g.Score != w.Score || len(g.Terms) != len(w.Terms) {
				t.Errorf("result %d: got %+v, want %+v", i, g, w)
			}
		}
	}
}

func TestWireGateFramesRoundTrip(t *testing.T) {
	now := time.Date(2006, 3, 1, 0, 0, 0, 12345, time.UTC).UnixNano()
	payload := bytes.Repeat([]byte{0xAB}, 536)

	frame := appendForwardArgs(nil, "node-17", payload, now)
	from, gotPayload, gotNow, err := decodeForwardArgs(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(from) != "node-17" || !bytes.Equal(gotPayload, payload) || gotNow != now {
		t.Errorf("forward args round trip mismatch")
	}

	frame = appendEngineArgs(nil, "node-17", []byte("the query"), now)
	source, query, gotNow, err := decodeEngineArgs(frame)
	if err != nil {
		t.Fatal(err)
	}
	if string(source) != "node-17" || string(query) != "the query" || gotNow != now {
		t.Errorf("engine args round trip mismatch")
	}
}

// --- hardening --------------------------------------------------------------

func TestWireRejectsBadFrames(t *testing.T) {
	good := appendRequest(nil, 9, []byte("ok query"))

	// Every truncation of a valid frame must fail cleanly.
	for i := 0; i < len(good); i++ {
		if _, _, err := decodeRequestWire(good[:i]); err == nil {
			t.Errorf("truncated frame of %d bytes accepted", i)
		}
	}
	// Unknown version.
	bad := append([]byte{}, good...)
	bad[0] = 99
	if _, _, err := decodeRequestWire(bad); !errors.Is(err, ErrWireVersion) {
		t.Errorf("unknown version: got %v, want ErrWireVersion", err)
	}
	// Trailing garbage.
	if _, _, err := decodeRequestWire(append(append([]byte{}, good...), 0)); !errors.Is(err, ErrWireTrailing) {
		t.Errorf("trailing bytes: want ErrWireTrailing")
	}
	// Oversized length field: a frame claiming a query far beyond the bound
	// must be rejected before allocation.
	huge := appendWireString(append([]byte{wireVersion}, make([]byte, 8)...), "")
	huge = huge[:len(huge)-1]                               // drop the empty-string varint
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F) // ~2^41 length
	if _, _, err := decodeRequestWire(huge); !errors.Is(err, ErrWireOversize) {
		t.Errorf("oversized length: got %v, want ErrWireOversize", err)
	}

	// Gate frames: truncations fail too.
	gf := appendForwardArgs(nil, "n", []byte("payload"), 1)
	for i := 0; i < len(gf); i++ {
		if _, _, _, err := decodeForwardArgs(gf[:i]); err == nil {
			t.Errorf("truncated forward args of %d bytes accepted", i)
		}
	}
	ef := appendEngineArgs(nil, "n", []byte("q"), 1)
	for i := 0; i < len(ef); i++ {
		if _, _, _, err := decodeEngineArgs(ef[:i]); err == nil {
			t.Errorf("truncated engine args of %d bytes accepted", i)
		}
	}
	resp, _ := encodeResponse(&forwardResponse{RequestID: 1, Results: []searchengine.Result{{DocID: 1, URL: "u", Terms: []string{"t"}}}})
	for i := 0; i < len(resp); i++ {
		for _, discardPage := range []bool{false, true} {
			if _, err := decodeResponseWire(resp[:i], discardPage); err == nil {
				t.Errorf("truncated response of %d bytes accepted (discardPage=%v)", i, discardPage)
			}
		}
	}
}

// --- allocation regression ---------------------------------------------------

// The binary codec must not allocate when encoding into a buffer with spare
// capacity, and request decoding is zero-copy.
func TestWireCodecAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	dst := make([]byte, 0, 1024)
	query := []byte("allocation probe query")
	if n := testing.AllocsPerRun(200, func() {
		dst = appendRequest(dst[:0], 77, query)
	}); n != 0 {
		t.Errorf("appendRequest allocates %.1f times per op, want 0", n)
	}
	frame := appendRequest(nil, 77, query)
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := decodeRequestWire(frame); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decodeRequestWire allocates %.1f times per op, want 0", n)
	}
	payload := make([]byte, 536)
	if n := testing.AllocsPerRun(200, func() {
		dst = appendForwardArgs(dst[:0], "client-1", payload, 12345)
	}); n != 0 {
		t.Errorf("appendForwardArgs allocates %.1f times per op, want 0", n)
	}
}

// One full forward round trip (encode, pad, encrypt, both gate crossings,
// decrypt, decode) allocates nothing at steady state: the past-query table
// keeps the query as bytes, and the engine ocall cuts the string
// Backend.Search takes from a shared chunk.
func TestRelayRoundTripAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	net, err := NewNetwork(NetworkOptions{Nodes: 2, Seed: 4242, Backend: NullBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	ids := net.NodeIDs()
	client, relay := net.Node(ids[0]), ids[1]
	now := time.Unix(0, 0)

	// Warm up: establish the attested session, grow the scratch buffers and
	// fill the buffer pool.
	for i := 0; i < 16; i++ {
		if err := net.RelayRoundTrip(client, relay, "steady state probe", now); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(500, func() {
		if err := net.RelayRoundTrip(client, relay, "steady state probe", now); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("RelayRoundTrip allocates %.3f times per op, want 0", n)
	}
}

// pageBackend answers every query with one fixed page.
type pageBackend struct{ page []searchengine.Result }

func (b pageBackend) Search(string, string, time.Time) ([]searchengine.Result, error) {
	return b.page, nil
}

// realPage is a page of the size a relay really carries: 10 results whose
// documents hold 20–39 terms each, as the engine's do (305 terms in all).
func realPage() []searchengine.Result {
	page := make([]searchengine.Result, 10)
	for i := range page {
		terms := make([]string, 20+i*13%20)
		for j := range terms {
			terms[j] = fmt.Sprintf("term%d", (i*7+j)%40)
		}
		page[i] = searchengine.Result{
			DocID: 1000 + i,
			URL:   fmt.Sprintf("https://web.sim/health/%d", 1000+i),
			Title: strings.Join(terms[:4], " "),
			Terms: terms,
			Score: 9.5 - float64(i)/4,
		}
	}
	return page
}

// The pins above only ever see NullBackend's empty page. With a real page
// in the response, a forward whose page the caller discards (a fake, a
// capacity probe) must cost no more than with an empty one — nothing — and
// a forward whose page is kept only the three allocations of the page
// decode.
func TestForwardAllocsOnRealPage(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("race instrumentation adds allocations")
	}
	page := realPage()
	net, err := NewNetwork(NetworkOptions{Nodes: 2, Seed: 4242, Backend: pageBackend{page}})
	if err != nil {
		t.Fatal(err)
	}
	ids := net.NodeIDs()
	client, relay := net.Node(ids[0]), ids[1]
	now := time.Unix(0, 0)
	probe := []byte("steady state probe")

	for _, tc := range []struct {
		name        string
		discardPage bool
		wantResults int
		maxAllocs   float64
	}{
		{"fake path", true, 0, 0},
		{"real path", false, len(page), 3},
	} {
		forward := func() {
			resp, _, err := net.forward(client, relay, probe, now, tc.discardPage)
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.Results) != tc.wantResults {
				t.Fatalf("%s: %d results, want %d", tc.name, len(resp.Results), tc.wantResults)
			}
		}
		for i := 0; i < 16; i++ {
			forward() // attest, grow the scratch buffers, fill the pool
		}
		if n := testing.AllocsPerRun(500, forward); n > tc.maxAllocs {
			t.Errorf("%s forward allocates %.1f times per op, want <= %.0f", tc.name, n, tc.maxAllocs)
		}
	}
}

// --- fuzzing ----------------------------------------------------------------

// FuzzWireRequest proves the request encoding round-trips for arbitrary
// field values.
func FuzzWireRequest(f *testing.F) {
	f.Add(uint64(0), "")
	f.Add(uint64(1), "private web search")
	f.Add(^uint64(0), strings.Repeat("x", maxWireQueryLen))
	f.Fuzz(func(t *testing.T, id uint64, query string) {
		if len(query) > maxWireQueryLen {
			query = query[:maxWireQueryLen]
		}
		frame := appendRequest(nil, id, []byte(query))
		gotID, gotQuery, err := decodeRequestWire(frame)
		if err != nil {
			t.Fatalf("decode of valid frame failed: %v", err)
		}
		if gotID != id || string(gotQuery) != query {
			t.Fatalf("round trip: got (%d, %q), want (%d, %q)", gotID, gotQuery, id, query)
		}
	})
}

// FuzzWireDecode hammers every decoder with arbitrary bytes: none may
// panic, and any frame that decodes must re-encode to a frame that decodes
// to the same values (truncated and oversized inputs are rejected by the
// error path).
func FuzzWireDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendRequest(nil, 7, []byte("seed query")))
	f.Add(appendForwardArgs(nil, "n1", []byte("payload"), 99))
	f.Add(appendEngineArgs(nil, "n1", []byte("q"), 99))
	seed, _ := encodeResponse(&forwardResponse{RequestID: 3, Results: []searchengine.Result{{DocID: 5, URL: "u", Title: "t", Terms: []string{"a"}, Score: 1.5}}})
	f.Add(seed)
	f.Add([]byte{wireVersion, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		if id, query, err := decodeRequestWire(data); err == nil {
			re := appendRequest(nil, id, query)
			id2, q2, err := decodeRequestWire(re)
			if err != nil || id2 != id || !bytes.Equal(q2, query) {
				t.Fatalf("request re-encode mismatch: %v", err)
			}
		}
		resp, err := decodeResponseWire(data, false)
		// A fake's response gets every check the real one does: discarding
		// the page must accept and reject exactly the same frames.
		skipped, skipErr := decodeResponseWire(data, true)
		if (err == nil) != (skipErr == nil) {
			t.Fatalf("decode err %v but discard-page err %v", err, skipErr)
		}
		if err == nil {
			if skipped.RequestID != resp.RequestID || skipped.EngineError != resp.EngineError || skipped.Results != nil {
				t.Fatalf("discard-page header %+v differs from decoded %+v", skipped, resp)
			}
			re, err := encodeResponse(&resp)
			if err != nil {
				t.Fatalf("re-encode of decoded response failed: %v", err)
			}
			resp2, err := decodeResponseWire(re, false)
			if err != nil || resp2.RequestID != resp.RequestID || resp2.EngineError != resp.EngineError || len(resp2.Results) != len(resp.Results) {
				t.Fatalf("response re-encode mismatch: %v", err)
			}
		}
		if from, payload, nowNano, err := decodeForwardArgs(data); err == nil {
			re := appendForwardArgs(nil, string(from), payload, nowNano)
			f2, p2, n2, err := decodeForwardArgs(re)
			if err != nil || !bytes.Equal(f2, from) || !bytes.Equal(p2, payload) || n2 != nowNano {
				t.Fatalf("forward args re-encode mismatch: %v", err)
			}
		}
		//nolint:errcheck // robustness only: must not panic
		decodeEngineArgs(data)
	})
}
