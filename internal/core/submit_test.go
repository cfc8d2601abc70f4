package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyclosa/internal/searchengine"
	"cyclosa/internal/sensitivity"
	"cyclosa/internal/testutil"
	"cyclosa/internal/transport"
)

// The two halves of a forward, on the submit path. forwardExchange used to
// be one function; these tests pin that every check it made is still made
// when Search runs sealForward, Submit and openForward apart.

// nativeSeam is a conduit that implements transport.Submitter itself, the
// way TCPConduit does: Submit delivers each record in a goroutine and hands
// the response over in a buffer of its own, which it poisons on Release so a
// use after the hand-back shows. fault, when set, replaces what a relay
// answered.
type nativeSeam struct {
	inner transport.Conduit

	mu       sync.Mutex
	fault    map[string]func(resp []byte, err error) ([]byte, error)
	attempts int
	released int
}

func (s *nativeSeam) setFault(relay string, f func(resp []byte, err error) ([]byte, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fault == nil {
		s.fault = make(map[string]func([]byte, error) ([]byte, error))
	}
	if f == nil {
		delete(s.fault, relay)
	} else {
		s.fault[relay] = f
	}
}

func (s *nativeSeam) Deliver(from, to string, payload []byte, now time.Time) ([]byte, time.Duration, error) {
	s.mu.Lock()
	s.attempts++
	f := s.fault[to]
	s.mu.Unlock()
	resp, injected, err := s.inner.Deliver(from, to, payload, now)
	if f != nil {
		resp, err = f(resp, err)
	}
	return resp, injected, err
}

func (s *nativeSeam) Submit(from string, now time.Time, batch []transport.Submission, done chan<- transport.Completion) {
	for _, sub := range batch {
		go func(sub transport.Submission) {
			resp, injected, err := s.Deliver(from, sub.To, sub.Payload, now)
			c := transport.Completion{Tag: sub.Tag, Injected: injected, Err: err}
			if err == nil {
				buf := append([]byte(nil), resp...)
				c.Resp, c.Buf = buf, &buf
			}
			done <- c
		}(sub)
	}
}

func (s *nativeSeam) Release(c transport.Completion) {
	s.mu.Lock()
	s.released++
	s.mu.Unlock()
	if c.Buf != nil {
		for i := range *c.Buf {
			(*c.Buf)[i] = 0xEE
		}
	}
}

// echoPageBackend answers with one result naming the query, so a real page has
// something that could alias a released buffer.
type echoPageBackend struct{}

func (echoPageBackend) Search(_, query string, _ time.Time) ([]searchengine.Result, error) {
	return []searchengine.Result{{DocID: 7, URL: "http://engine/doc", Title: query, Terms: strings.Fields(query), Score: 1}}, nil
}

// seamNet is a 12-node k = 7 deployment behind a nativeSeam.
func seamNet(t *testing.T, seed int64) (*Network, *nativeSeam) {
	t.Helper()
	seam := &nativeSeam{}
	net, err := NewNetwork(NetworkOptions{
		Nodes:        12,
		Seed:         seed,
		Backend:      echoPageBackend{},
		LatencyModel: transport.NewModel(seed, nil, 0),
		Conduit: func(direct transport.Conduit) transport.Conduit {
			seam.inner = direct
			return seam
		},
		AnalyzerFor: func(string) *sensitivity.Analyzer {
			return sensitivity.NewAnalyzer(alwaysSensitive{}, nil, 7)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, native := net.submit.(*nativeSeam); !native {
		t.Fatal("a conduit implementing transport.Submitter must be used as is, not adapted")
	}
	net.BootstrapFromTrending(getWorld(t).uni, 24, seed)
	return net, seam
}

// pairFree reports whether nobody holds the pair's lock.
func pairFree(net *Network, client, relay string) bool {
	ps := net.pairEntry(client, relay)
	if !ps.mu.TryLock() {
		return false
	}
	ps.mu.Unlock()
	return true
}

func pairSession(net *Network, client, relay string) any {
	ps := net.pairEntry(client, relay)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.client == nil {
		return nil
	}
	return ps.client
}

// TestSealForwardRefusals: what sealForward refuses, it refuses before a
// request id is drawn, holding no pair lock afterwards.
func TestSealForwardRefusals(t *testing.T) {
	net, ids := retryNet(t, nil)
	client := net.Node(ids[0])
	if _, _, err := net.forward(client, ids[4], []byte("attest the pair"), t0, true); err != nil {
		t.Fatal(err)
	}
	net.Kill(ids[2])
	requests := net.RequestCount()

	cases := []struct {
		name, relay, query string
		attest             bool
		want               error
	}{
		{"self relay", client.id, "q", true, ErrSelfRelay},
		{"dead relay", ids[2], "q", true, ErrRelayUnavailable},
		{"non-member", "stranger", "q", true, ErrRelayUnavailable},
		{"no session and no leave to attest", ids[1], "q", false, errUnattested},
		{"oversize query", ids[4], strings.Repeat("x", maxWireQueryLen+1), false, ErrWireOversize},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c forwardCall
			record, err := net.sealForward(client, tc.relay, []byte(tc.query), true, tc.attest, time.Now(), &c)
			if !errors.Is(err, tc.want) || record != nil {
				t.Fatalf("record %d bytes, err = %v; want no record and %v", len(record), err, tc.want)
			}
			if c.ps != nil {
				t.Fatal("a refused forward carries a pair state")
			}
			if tc.relay != client.id && !pairFree(net, client.id, tc.relay) {
				t.Fatal("a refused forward left its pair locked")
			}
			if got := net.RequestCount(); got != requests {
				t.Fatalf("a refused forward drew request id %d", got)
			}
		})
	}
	if pairSession(net, client.id, ids[1]) != nil {
		t.Fatal("sealForward attested a pair it was told not to")
	}
}

// TestSealForwardPadsToFixedSize: the sealed record has one size whatever
// the query, on the path Search uses (no inline attestation).
func TestSealForwardPadsToFixedSize(t *testing.T) {
	net, ids := retryNet(t, nil)
	client := net.Node(ids[0])
	if _, _, err := net.forward(client, ids[1], []byte("attest the pair"), t0, true); err != nil {
		t.Fatal(err)
	}
	sizes := make(map[int]bool)
	for _, q := range []string{"a", "medium sized query terms", strings.Repeat("long ", 40)} {
		var c forwardCall
		record, err := net.sealForward(client, ids[1], []byte(q), true, false, time.Now(), &c)
		if err != nil {
			t.Fatal(err)
		}
		sizes[len(record)] = true
		if pairFree(net, client.id, ids[1]) {
			t.Fatal("a sealed forward does not hold its pair lock")
		}
		answer, injected, err := net.conduit.Deliver(client.id, ids[1], record, t0)
		if _, _, err := net.openForward(client, &c, transport.Completion{Resp: answer, Injected: injected, Err: err}, time.Now()); err != nil {
			t.Fatal(err)
		}
		if !pairFree(net, client.id, ids[1]) {
			t.Fatal("an opened forward still holds its pair lock")
		}
	}
	if len(sizes) != 1 {
		t.Fatalf("sealed record sizes vary with the query: %v", sizes)
	}
}

// TestOpenForwardChecks feeds openForward every kind of answer. Each check of
// the old single-function exchange must hold: AEAD open, request-id echo,
// page validation (also of a page nobody will look at), breakPair on every
// failure after the seal except a throttled record, the typed outcomes; and
// whatever the answer, the pair lock is released, the response buffer
// handed back exactly once and the forward's own scratch returned to
// bufPool. On an exit that keeps the pair, a round of that exit and one
// forward allocates no more than the forwards in it: a buffer the exit kept
// would cost a pool New on every round.
func TestOpenForwardChecks(t *testing.T) {
	errThrottled := fmt.Errorf("%w: over quota", ErrRelayThrottled)
	// relaySeal seals a response plaintext with the relay's half of the
	// session — what only a relay enclave gone bad could produce.
	relaySeal := func(t *testing.T, relay *Node, client string, plain []byte) []byte {
		t.Helper()
		relay.state.mu.RLock()
		rs := relay.state.sessions[client]
		relay.state.mu.RUnlock()
		ct, err := rs.sess.EncryptAppend(nil, plain)
		if err != nil {
			t.Fatal(err)
		}
		return ct
	}
	page := searchengine.AppendResults(nil, []searchengine.Result{{DocID: 1, URL: "u", Title: "t", Score: 1}})

	cases := []struct {
		name string
		// answer builds the completion for the sealed record.
		answer      func(t *testing.T, net *Network, client, relay *Node, c *forwardCall, record []byte) transport.Completion
		discardPage bool
		wantErr     error // nil: the forward succeeds
		notErr      error
		keepsPair   bool
	}{
		{
			name: "honest answer",
			answer: func(t *testing.T, net *Network, client, relay *Node, c *forwardCall, record []byte) transport.Completion {
				resp, injected, err := net.conduit.Deliver(client.id, relay.id, record, t0)
				return transport.Completion{Resp: resp, Injected: injected, Err: err}
			},
			keepsPair: true,
		},
		{
			name: "flipped bit fails the AEAD open",
			answer: func(t *testing.T, net *Network, client, relay *Node, c *forwardCall, record []byte) transport.Completion {
				resp, _, err := net.conduit.Deliver(client.id, relay.id, record, t0)
				if err != nil {
					t.Fatal(err)
				}
				resp = append([]byte(nil), resp...)
				resp[len(resp)/2] ^= 1
				return transport.Completion{Resp: resp}
			},
			wantErr: ErrRelayMisbehaved,
		},
		{
			name: "stale request id",
			answer: func(t *testing.T, net *Network, client, relay *Node, c *forwardCall, record []byte) transport.Completion {
				plain := append(appendResponseHeader(nil, c.requestID-1, ""), page...)
				return transport.Completion{Resp: relaySeal(t, relay, client.id, plain)}
			},
			wantErr: ErrRelayMisbehaved,
		},
		{
			name: "garbage page behind a valid header, page kept",
			answer: func(t *testing.T, net *Network, client, relay *Node, c *forwardCall, record []byte) transport.Completion {
				plain := append(appendResponseHeader(nil, c.requestID, ""), 0xff, 0xff, 0xff, 0xff, 0x7f)
				return transport.Completion{Resp: relaySeal(t, relay, client.id, plain)}
			},
			wantErr: ErrRelayMisbehaved,
		},
		{
			name: "garbage page behind a valid header, page discarded",
			answer: func(t *testing.T, net *Network, client, relay *Node, c *forwardCall, record []byte) transport.Completion {
				plain := append(appendResponseHeader(nil, c.requestID, ""), 0xff, 0xff, 0xff, 0xff, 0x7f)
				return transport.Completion{Resp: relaySeal(t, relay, client.id, plain)}
			},
			discardPage: true,
			wantErr:     ErrRelayMisbehaved,
		},
		{
			name: "trailing bytes after a discarded page",
			answer: func(t *testing.T, net *Network, client, relay *Node, c *forwardCall, record []byte) transport.Completion {
				plain := append(append(appendResponseHeader(nil, c.requestID, ""), page...), 0)
				return transport.Completion{Resp: relaySeal(t, relay, client.id, plain)}
			},
			discardPage: true,
			wantErr:     ErrRelayMisbehaved,
		},
		{
			name: "throttled record keeps the pair",
			answer: func(t *testing.T, net *Network, client, relay *Node, c *forwardCall, record []byte) transport.Completion {
				// A shedding relay consumes the record's sequence number.
				if err := (directConduit{net}).SkipRecord(client.id, relay.id, record); err != nil {
					t.Fatal(err)
				}
				return transport.Completion{Err: errThrottled}
			},
			wantErr:   ErrRelayThrottled,
			notErr:    ErrRelayMisbehaved,
			keepsPair: true,
		},
		{
			name: "unavailable relay",
			answer: func(*testing.T, *Network, *Node, *Node, *forwardCall, []byte) transport.Completion {
				return transport.Completion{Err: fmt.Errorf("%w: connection cut", ErrRelayUnavailable)}
			},
			wantErr: ErrRelayUnavailable,
			notErr:  ErrRelayMisbehaved,
		},
		{
			name: "unresolved relay stays typed",
			answer: func(*testing.T, *Network, *Node, *Node, *forwardCall, []byte) transport.Completion {
				return transport.Completion{Err: fmt.Errorf("%w: %w: no address", ErrRelayUnavailable, ErrRelayUnresolved)}
			},
			wantErr: ErrRelayUnresolved,
			notErr:  ErrRelayMisbehaved,
		},
		{
			name: "relay lost its session",
			answer: func(*testing.T, *Network, *Node, *Node, *forwardCall, []byte) transport.Completion {
				return transport.Completion{Err: fmt.Errorf("%w with the client", ErrNoSession)}
			},
			wantErr: ErrNoSession,
			notErr:  ErrRelayMisbehaved,
		},
		{
			name: "any other refusal is misbehaviour",
			answer: func(*testing.T, *Network, *Node, *Node, *forwardCall, []byte) transport.Completion {
				return transport.Completion{Err: errors.New("relay rejected exchange")}
			},
			wantErr: ErrRelayMisbehaved,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, seam := seamNet(t, 91)
			ids := net.NodeIDs()
			client, relay := net.Node(ids[0]), net.Node(ids[1])
			if _, _, err := net.forward(client, relay.id, []byte("attest the pair"), t0, true); err != nil {
				t.Fatal(err)
			}
			released := seam.released

			var c forwardCall
			record, err := net.sealForward(client, relay.id, []byte("the query under test"), tc.discardPage, false, time.Now(), &c)
			if err != nil {
				t.Fatal(err)
			}
			answer := tc.answer(t, net, client, relay, &c, record)
			if answer.Err == nil {
				buf := append([]byte(nil), answer.Resp...)
				answer.Resp, answer.Buf = buf, &buf
			}
			reply, _, err := net.openForward(client, &c, answer, time.Now())

			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("err = %v, want success", err)
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr):
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			case tc.notErr != nil && errors.Is(err, tc.notErr):
				t.Fatalf("err = %v, must not be %v", err, tc.notErr)
			}
			if err == nil && !tc.discardPage && (len(reply.Results) != 1 || reply.Results[0].Title != "the query under test") {
				t.Fatalf("page = %+v (does it alias the released buffer?)", reply.Results)
			}
			if !pairFree(net, client.id, relay.id) {
				t.Fatal("openForward returned holding the pair lock")
			}
			if got := seam.released - released; got != 1 {
				t.Fatalf("response buffer handed back %d times, want once", got)
			}
			if c.plain != nil || c.ct != nil {
				t.Fatal("openForward returned still holding the forward's scratch")
			}
			if kept := pairSession(net, client.id, relay.id) != nil; kept != tc.keepsPair {
				t.Fatalf("pair kept = %v, want %v", kept, tc.keepsPair)
			}
			if !tc.keepsPair || testutil.RaceEnabled {
				return
			}

			forward := func() {
				if _, _, err := net.forward(client, relay.id, []byte("the query under test"), t0, tc.discardPage); err != nil {
					t.Fatal(err)
				}
			}
			exit := func() {
				record, err := net.sealForward(client, relay.id, []byte("the query under test"), tc.discardPage, false, time.Now(), &c)
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := net.openForward(client, &c, tc.answer(t, net, client, relay, &c, record), time.Now()); !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
			}
			round := func() { exit(); forward() }
			for i := 0; i < 8; i++ {
				round() // grow the pooled buffers to their working size
			}
			pin := testing.AllocsPerRun(200, forward)
			want := pin // a throttled exit allocates nothing
			if tc.wantErr == nil {
				want += pin // an honest exit is a forward
			}
			if n := testing.AllocsPerRun(200, round); n > want {
				t.Errorf("exit + forward allocates %.0f times per round, want <= %.0f (a forward alone: %.0f)", n, want, pin)
			}
		})
	}
}

// TestSearchTypedOutcomesOnSubmitPath drives whole searches over a native
// submit seam while one warm relay misbehaves in each of the typed ways, and
// checks what the retry continuation did about it.
func TestSearchTypedOutcomesOnSubmitPath(t *testing.T) {
	cases := []struct {
		name  string
		fault func(resp []byte, err error) ([]byte, error)
		once  bool
		// expectations on the searching node
		blacklisted, misbehaved bool
		keepsPair               bool
	}{
		{
			name: "tampering relay is blacklisted",
			fault: func(resp []byte, err error) ([]byte, error) {
				if err == nil {
					resp = append([]byte(nil), resp...)
					resp[len(resp)/2] ^= 0x10
				}
				return resp, err
			},
			blacklisted: true, misbehaved: true,
		},
		{
			name:      "throttling relay is spared",
			fault:     func([]byte, error) ([]byte, error) { return nil, fmt.Errorf("%w: over quota", ErrRelayThrottled) },
			keepsPair: true,
		},
		{
			name:  "relay that lost its session is re-attested once",
			fault: func([]byte, error) ([]byte, error) { return nil, fmt.Errorf("%w with the client", ErrNoSession) },
			once:  true, keepsPair: true,
		},
		{
			name: "unresolved relay is skipped",
			fault: func([]byte, error) ([]byte, error) {
				return nil, fmt.Errorf("%w: %w: no address", ErrRelayUnavailable, ErrRelayUnresolved)
			},
		},
		{
			name:        "unavailable relay is blacklisted",
			fault:       func([]byte, error) ([]byte, error) { return nil, fmt.Errorf("%w: cut", ErrRelayUnavailable) },
			blacklisted: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net, seam := seamNet(t, 92)
			ids := net.NodeIDs()
			client := net.Node(ids[0])
			search := func(i int) {
				t.Helper()
				q := fmt.Sprintf("typed outcome probe %d", i)
				res, err := client.Search(q, t0)
				if err != nil {
					t.Fatalf("search %d: %v", i, err)
				}
				if res.K != 7 || len(res.Results) != 1 || res.Results[0].Title != q {
					t.Fatalf("search %d: K = %d, page %+v", i, res.K, res.Results)
				}
			}
			// Warm-up: with a session on every pair, every path of the
			// searches below goes through Submit.
			for i := 0; i < 40; i++ {
				search(i)
			}
			culprit := ids[1]
			before := pairSession(net, client.id, culprit)
			if before == nil {
				t.Fatalf("warm-up never reached %s", culprit)
			}
			var hits atomic.Int32
			seam.setFault(culprit, func(resp []byte, err error) ([]byte, error) {
				if n := hits.Add(1); tc.once && n > 1 {
					return resp, err
				}
				return tc.fault(resp, err)
			})
			for i := 40; hits.Load() == 0 && i < 80; i++ {
				search(i)
			}
			if hits.Load() == 0 {
				t.Fatalf("40 searches never sampled %s", culprit)
			}

			st := client.Stats()
			if (st.Blacklisted != 0) != tc.blacklisted || (st.Misbehaved != 0) != tc.misbehaved {
				t.Fatalf("blacklisted %d, misbehaved %d; want blacklisted=%v misbehaved=%v", st.Blacklisted, st.Misbehaved, tc.blacklisted, tc.misbehaved)
			}
			after := pairSession(net, client.id, culprit)
			if (after != nil) != tc.keepsPair {
				t.Fatalf("pair with the culprit kept = %v, want %v", after != nil, tc.keepsPair)
			}
			if tc.once && after == before {
				t.Fatal("the pair was not re-attested after the relay lost its session")
			}
			seam.mu.Lock()
			defer seam.mu.Unlock()
			if uint64(seam.attempts) != net.RequestCount() {
				t.Fatalf("%d request ids for %d delivery attempts", net.RequestCount(), seam.attempts)
			}
			if seam.released != seam.attempts {
				t.Fatalf("%d buffers handed back for %d deliveries (submitted and blocking)", seam.released, seam.attempts)
			}
		})
	}
}
