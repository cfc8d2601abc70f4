package core

import (
	"errors"
	"testing"

	"cyclosa/internal/enclave"
	"cyclosa/internal/securechan"
	"cyclosa/internal/sensitivity"
)

// A re-attested pair gets fresh keys: a record sealed under the first
// session, never delivered, is refused by the relay once AttestRelay has
// replaced the session — the same sequence number, but not the same keys.
func TestReattestRejectsOldSessionRecord(t *testing.T) {
	w := getWorld(t)
	net := newTestNetwork(t, 6, w, 0)
	ids := net.NodeIDs()
	client, relay := net.Node(ids[0]), net.Node(ids[1])

	if _, err := client.AttestRelay(relay.ID(), directConduit{net}); err != nil {
		t.Fatal(err)
	}
	plain, err := encodeRequest(&forwardRequest{Query: "sealed before the re-attestation", RequestID: 9})
	if err != nil {
		t.Fatal(err)
	}
	old, err := net.pairEntry(client.ID(), relay.ID()).client.EncryptAppend(nil, padPlaintext(plain))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := client.AttestRelay(relay.ID(), directConduit{net}); err != nil {
		t.Fatal(err)
	}
	engineBefore := len(w.engine.Observations())
	if _, err := relay.handleForward(client.ID(), old, t0); err == nil {
		t.Fatal("a record of the replaced session was accepted by the re-attested one")
	}
	if len(w.engine.Observations()) != engineBefore {
		t.Error("the replayed record reached the engine")
	}
	// The new session works.
	if _, err := client.Search(w.uni.Topic("music").Terms[0], t0); err != nil {
		t.Fatal(err)
	}
}

// A platform revoked after its quote was memoised is refused on the next
// handshake: in process (EstablishPair) and over the attest frame
// (directConduit.Attest), whichever side is revoked.
func TestRevokedPlatformRefusedAfterMemo(t *testing.T) {
	w := getWorld(t)
	net := newTestNetwork(t, 6, w, 0)
	ids := net.NodeIDs()
	client := net.Node(ids[0])
	for _, id := range ids[1:4] {
		if _, err := net.pair(client, net.Node(id)); err != nil {
			t.Fatal(err)
		}
	}
	before := net.ias.Verifications()

	// In process: the relay's platform is revoked; the pair is broken and
	// attested again.
	inProc := net.Node(ids[1])
	net.ias.Revoke("sgx-" + inProc.ID())
	ps := net.pairEntry(client.ID(), inProc.ID())
	ps.mu.Lock()
	net.breakPair(ps, client, inProc)
	ps.mu.Unlock()
	if _, err := net.pair(client, inProc); !errors.Is(err, enclave.ErrRevokedPlatform) {
		t.Errorf("in-process handshake with a revoked relay: err = %v", err)
	}

	// Over the attest frame, the relay revoked: the client refuses its offer.
	remote := net.Node(ids[2])
	net.ias.Revoke("sgx-" + remote.ID())
	if _, err := client.AttestRelay(remote.ID(), directConduit{net}); !errors.Is(err, ErrRelayMisbehaved) || !errors.Is(err, enclave.ErrRevokedPlatform) {
		t.Errorf("attest frame to a revoked relay: err = %v", err)
	}

	// Over the attest frame, the client revoked: the relay refuses it.
	net.ias.Revoke("sgx-" + client.ID())
	if _, err := client.AttestRelay(ids[3], directConduit{net}); !errors.Is(err, securechan.ErrAttestation) || !errors.Is(err, enclave.ErrRevokedPlatform) {
		t.Errorf("attest frame from a revoked client: err = %v", err)
	}
	if got := net.ias.Verifications(); got != before {
		t.Errorf("revocations were found by %d signature checks; the platform lookup alone must refuse", got-before)
	}
}

// One signature per enclave, one signature check per quote: a 16-node
// network where every node runs one k = 7 search makes 128 handshakes, each
// with its own X25519 per side, but signs 16 quotes and checks each quote's
// signature once. The verifier holds no lock while it checks, so a quote
// presented again before its first check finishes is checked again. Searches
// here run one at a time, and within a search only the client's quote is
// presented more than once (to its k+1 relays at once), so the checks beyond
// one per quote are at most k per search whose client's quote no earlier
// search presented.
func TestHandshakeSignsOnceVerifiesOnce(t *testing.T) {
	w := getWorld(t)
	const nodes, kmax = 16, 7
	net, err := NewNetwork(NetworkOptions{
		Nodes:   nodes,
		Seed:    55,
		Backend: NullBackend{},
		AnalyzerFor: func(string) *sensitivity.Analyzer {
			return sensitivity.NewAnalyzer(alwaysSensitive{}, nil, kmax)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	net.BootstrapFromTrending(w.uni, 16, 55)
	paths, newClients := 0, 0
	presented := make(map[string]bool)
	for _, id := range net.NodeIDs() {
		if !presented[id] {
			newClients++
		}
		res, err := net.Node(id).Search("some plain query", t0)
		if err != nil {
			t.Fatal(err)
		}
		paths += res.K + 1
		presented[id] = true
		for _, relay := range net.NodeIDs() {
			n := net.Node(relay)
			n.state.mu.RLock()
			if _, ok := n.state.sessions[id]; ok {
				presented[relay] = true
			}
			n.state.mu.RUnlock()
		}
	}

	var quotes uint64
	handshakes := 0
	for _, id := range net.NodeIDs() {
		n := net.Node(id)
		quotes += n.Enclave().Stats().Quotes
		n.state.mu.RLock()
		handshakes += len(n.state.sessions)
		n.state.mu.RUnlock()
	}
	if paths != nodes*(kmax+1) || handshakes != paths {
		t.Fatalf("%d paths, %d handshakes; want %d each", paths, handshakes, nodes*(kmax+1))
	}
	if quotes != nodes {
		t.Errorf("%d quotes signed for %d handshakes, want %d (one per enclave)", quotes, handshakes, nodes)
	}
	checks := net.ias.Verifications()
	if limit := uint64(nodes + kmax*newClients); checks < nodes || checks > limit {
		t.Errorf("%d IAS signature checks for %d handshakes, want %d to %d (one per quote, plus racing first checks in %d searches)",
			checks, handshakes, nodes, limit, newClients)
	}
	t.Logf("%d handshakes: %d quotes signed, %d IAS signature checks (limit %d)", handshakes, quotes, checks, nodes+kmax*newClients)
}
