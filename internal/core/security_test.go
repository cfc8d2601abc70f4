package core

import (
	"strings"
	"testing"
)

// Security-analysis tests: each maps a claim of §VI to observable behaviour.

// §VI-a: clients cannot bypass the enclave — requests not encrypted under an
// attested session are rejected by the relay and never pollute its table.
func TestSecurityForgedRequestRejected(t *testing.T) {
	w := getWorld(t)
	net := newTestNetwork(t, 6, w, 0)
	ids := net.NodeIDs()
	client, relay := net.Node(ids[0]), net.Node(ids[1])

	// Establish a legitimate session so the relay knows the client.
	if _, err := client.Search(w.uni.Topic("music").Terms[0], t0); err != nil {
		t.Fatal(err)
	}
	tableBefore := relay.TableLen()

	// Garbage ciphertext under the client's identity: the enclave's
	// decrypt fails and nothing is recorded or forwarded.
	engineBefore := len(w.engine.Observations())
	if _, err := relay.handleForward(client.ID(), []byte("not a valid record at all"), t0); err == nil {
		t.Fatal("forged request accepted")
	}
	if relay.TableLen() != tableBefore {
		t.Error("forged request polluted the past-query table")
	}
	if len(w.engine.Observations()) != engineBefore {
		t.Error("forged request reached the engine")
	}

	// A request from an unknown peer (no attested session) is rejected too.
	if _, err := relay.handleForward("stranger", []byte("xxxxxxxxxxxx"), t0); err == nil {
		t.Fatal("unattested peer accepted")
	}
}

// §VI-b: a malicious host replaying a recorded request to the relay is
// rejected — the session's record counters have moved on.
func TestSecurityReplayToRelayRejected(t *testing.T) {
	w := getWorld(t)
	net := newTestNetwork(t, 6, w, 0)
	ids := net.NodeIDs()
	client, relayID := net.Node(ids[0]), ids[1]

	// Capture a legitimate encrypted request by building one by hand
	// through the pair state, then replaying it.
	ps, err := net.pair(client, net.Node(relayID))
	if err != nil {
		t.Fatal(err)
	}
	req := &forwardRequest{Query: "replayable query", RequestID: 42}
	plain, err := encodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ps.client.EncryptAppend(nil, padPlaintext(plain))
	if err != nil {
		t.Fatal(err)
	}

	// First delivery succeeds.
	if _, err := net.Node(relayID).handleForward(client.ID(), ct, t0); err != nil {
		t.Fatal(err)
	}
	// Replay of the identical ciphertext fails (§VI-b's random identifier
	// plus the channel's sequence numbers).
	if _, err := net.Node(relayID).handleForward(client.ID(), ct, t0); err == nil {
		t.Fatal("replayed request accepted")
	}
}

// §VI-b: relays that deny service get blacklisted and excluded from the
// overlay view.
func TestSecurityUnresponsiveRelayBlacklisted(t *testing.T) {
	w := getWorld(t)
	net := newTestNetwork(t, 8, w, 0)
	ids := net.NodeIDs()
	client := net.Node(ids[0])

	// Kill everything but the client and one survivor; search until the
	// client trips over dead relays.
	for _, id := range ids[2:] {
		net.Kill(id)
	}
	for i := 0; i < 6; i++ {
		//nolint:errcheck // some searches fail while blacklists converge
		_, _ = client.Search(w.uni.Topic("pets").Terms[i], t0)
	}
	if client.Stats().Blacklisted == 0 {
		t.Skip("client never sampled a dead relay at this seed")
	}
	// Blacklisted relays never reappear in samples.
	for i := 0; i < 50; i++ {
		for _, id := range client.peers.Sample(4) {
			if !net.Alive(string(id)) && client.Stats().Blacklisted >= 6 {
				t.Fatalf("dead relay %s still sampled after full blacklisting", id)
			}
		}
	}
}

// §VI-c: the engine-side adversary sees relays, never the requester, and
// sees real and fake queries as indistinguishable individual requests of
// identical shape.
func TestSecurityEngineViewShape(t *testing.T) {
	w := getWorld(t)
	net := newTestNetwork(t, 10, w, 3)
	ids := net.NodeIDs()
	client := net.Node(ids[0])

	before := len(w.engine.Observations())
	sens := w.uni.Topic("sex").Terms[2] + " " + w.uni.Topic("sex").Terms[3]
	res, err := client.Search(sens, t0)
	if err != nil {
		t.Fatal(err)
	}
	obs := w.engine.Observations()[before:]
	if len(obs) != res.K+1 {
		t.Fatalf("engine saw %d queries, want %d", len(obs), res.K+1)
	}
	for _, o := range obs {
		if o.Source == client.ID() {
			t.Error("requester identity leaked to the engine")
		}
		// Each observation is a single plain query — no OR groups, no size
		// side channel distinguishing real from fake.
		if len(o.Query) == 0 {
			t.Error("empty query observed")
		}
		for _, sep := range []string{" OR "} {
			if contains := len(o.Query) >= len(sep) && indexOf(o.Query, sep) >= 0; contains {
				t.Errorf("observed query %q has OR-group structure", o.Query)
			}
		}
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// §IV traffic analysis: every forward request has the identical on-wire
// size regardless of the query inside, so a link observer cannot tell real
// queries, fakes or forwards apart by length.
func TestSecurityUniformRequestSize(t *testing.T) {
	w := getWorld(t)
	net := newTestNetwork(t, 4, w, 0)
	ids := net.NodeIDs()
	client := net.Node(ids[0])
	ps, err := net.pair(client, net.Node(ids[1]))
	if err != nil {
		t.Fatal(err)
	}
	sizes := make(map[int]struct{})
	for _, q := range []string{"a", "medium sized query terms", strings.Repeat("long ", 40)} {
		plain, err := encodeRequest(&forwardRequest{Query: q, RequestID: 1})
		if err != nil {
			t.Fatal(err)
		}
		ct, err := ps.client.EncryptAppend(nil, padPlaintext(plain))
		if err != nil {
			t.Fatal(err)
		}
		sizes[len(ct)] = struct{}{}
	}
	if len(sizes) != 1 {
		t.Errorf("request sizes vary: %v", sizes)
	}
}

// Padding round trip and bounds.
func TestPadUnpadPlaintext(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("x"), make([]byte, 300), make([]byte, 2000)} {
		padded := padPlaintext(payload)
		if len(payload)+4 <= requestPadSize && len(padded) != requestPadSize {
			t.Errorf("padded size = %d, want %d", len(padded), requestPadSize)
		}
		back, err := unpadPlaintext(padded)
		if err != nil {
			t.Fatal(err)
		}
		if len(back) != len(payload) {
			t.Errorf("unpadded %d bytes, want %d", len(back), len(payload))
		}
	}
	if _, err := unpadPlaintext([]byte{1, 2}); err == nil {
		t.Error("short message should fail")
	}
	if _, err := unpadPlaintext([]byte{0xff, 0xff, 0xff, 0xff, 0}); err == nil {
		t.Error("bogus length should fail")
	}
}

// Sessions between distinct node pairs are cryptographically independent: a
// record captured on one pair cannot be fed to another relay.
func TestSecurityCrossPairIsolation(t *testing.T) {
	w := getWorld(t)
	net := newTestNetwork(t, 6, w, 0)
	ids := net.NodeIDs()
	client := net.Node(ids[0])

	psA, err := net.pair(client, net.Node(ids[1]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.pair(client, net.Node(ids[2])); err != nil {
		t.Fatal(err)
	}
	plain, err := encodeRequest(&forwardRequest{Query: "cross pair", RequestID: 7})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := psA.client.EncryptAppend(nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	// Delivering A's ciphertext to relay C must fail.
	if _, err := net.Node(ids[2]).handleForward(client.ID(), ct, t0); err == nil {
		t.Fatal("cross-pair ciphertext accepted")
	}
}
