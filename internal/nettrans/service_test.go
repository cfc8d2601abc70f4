package nettrans

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cyclosa/internal/core"
	"cyclosa/internal/enclave"
	"cyclosa/internal/queries"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/securechan"
)

// testDaemon is one relay daemon plus the attestation environment both
// sides share (the deterministic-platform stand-in for Intel provisioning).
type testDaemon struct {
	srv      *Server
	verifier *enclave.Verifier
	ias      *enclave.IAS
	secret   []byte
}

func startTestDaemon(t *testing.T, secret string) *testDaemon {
	t.Helper()
	d := newTestDaemon(t, secret)
	if err := d.srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return d
}

// newTestDaemon builds the daemon without starting it, for tests that get
// between its listener and its connections.
func newTestDaemon(t *testing.T, secret string) *testDaemon {
	t.Helper()
	d := &testDaemon{ias: enclave.NewIAS(), secret: []byte(secret)}
	d.verifier = enclave.NewVerifier(d.ias, enclave.MeasureCode(core.EnclaveName, core.EnclaveVersion))

	relayPlat := enclave.NewDeterministicPlatform("relay-platform", d.secret, d.ias)
	encl := relayPlat.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion})
	hs, err := securechan.NewHandshaker(encl, d.verifier)
	if err != nil {
		t.Fatal(err)
	}
	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 7})
	engine := searchengine.New(uni, searchengine.Config{Seed: 7})

	d.srv = NewServer(ServerConfig{
		ID:      "daemon-under-test",
		Service: &RelayService{Handshaker: hs, Backend: engine, Source: "daemon-under-test"},
	})
	t.Cleanup(func() { d.srv.Close() })
	return d
}

// dialTestClient attests a fresh client enclave against the daemon.
func (d *testDaemon) dial(t *testing.T) *Client {
	t.Helper()
	plat := enclave.NewDeterministicPlatform(fmt.Sprintf("client-platform-%d", time.Now().UnixNano()), d.secret, d.ias)
	encl := plat.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion})
	hs, err := securechan.NewHandshaker(encl, d.verifier)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialService(d.srv.Addr().String(), hs, ClientConfig{ID: "test-client"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServiceMultiplexedQueries drives many concurrent queries over ONE
// attested session: the stream IDs multiplex them on the single connection
// while encryption/decryption stay strictly ordered.
func TestServiceMultiplexedQueries(t *testing.T) {
	d := startTestDaemon(t, "svc-secret")
	c := d.dial(t)
	if c.ServerID() != "daemon-under-test" {
		t.Fatalf("server id = %q", c.ServerID())
	}

	uni := queries.NewUniverse(queries.UniverseConfig{Seed: 7})
	travel := uni.Topic("travel")

	const workers, perWorker = 8, 20
	var answered atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				q := travel.Terms[(w+i)%len(travel.Terms)] + " " + travel.Terms[(w+i+1)%len(travel.Terms)]
				if _, err := c.Query(q); err != nil {
					errs <- fmt.Errorf("worker %d query %d: %w", w, i, err)
					return
				}
				answered.Add(1)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := answered.Load(); got != workers*perWorker {
		t.Fatalf("answered %d queries, want %d", got, workers*perWorker)
	}
}

// TestServiceAttestationRejected: a client provisioned under a different
// attestation secret must be refused at the handshake.
func TestServiceAttestationRejected(t *testing.T) {
	d := startTestDaemon(t, "secret-a")

	// Build a client whose platform chain derives from the wrong secret.
	iasB := enclave.NewIAS()
	plat := enclave.NewDeterministicPlatform("client-platform", []byte("secret-b"), iasB)
	encl := plat.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion})
	verifier := enclave.NewVerifier(iasB, enclave.MeasureCode(core.EnclaveName, core.EnclaveVersion))
	hs, err := securechan.NewHandshaker(encl, verifier)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DialService(d.srv.Addr().String(), hs, ClientConfig{}); err == nil {
		t.Fatal("mismatched attestation roots accepted")
	}
}

// TestServiceDroppedConnClosesBothSessionHalves is the close-observer
// regression: when the TCP connection under an attested session drops, both
// session halves must be closed — the pool/server teardown paths fire the
// securechan close observer — and a reconnect re-attests with fresh nonce
// state instead of inheriting the dead session's counters.
func TestServiceDroppedConnClosesBothSessionHalves(t *testing.T) {
	var closes atomic.Int64
	closed := make(chan *securechan.Session, 8)
	securechan.SetCloseObserver(func(s *securechan.Session) {
		closes.Add(1)
		select {
		case closed <- s:
		default:
		}
	})
	defer securechan.SetCloseObserver(nil)

	// Track nonce sequences: after the reconnect, the fresh session must
	// start from zero (no leaked state).
	var seqMu sync.Mutex
	firstSeq := make(map[*securechan.Session]uint64)
	securechan.SetNonceObserver(func(s *securechan.Session, send bool, seq uint64) {
		if !send {
			return
		}
		seqMu.Lock()
		if _, ok := firstSeq[s]; !ok {
			firstSeq[s] = seq
		}
		seqMu.Unlock()
	})
	defer securechan.SetNonceObserver(nil)

	d := startTestDaemon(t, "drop-secret")
	c := d.dial(t)
	if _, err := c.Query("first query before the drop"); err != nil {
		t.Fatal(err)
	}

	// Abruptly drop the TCP connection out from under the session — no
	// goodbye, exactly like a crashed peer or a cut link.
	c.fc.c.Close()

	// Both halves (dialer side and responder side) must observe close.
	deadline := time.After(5 * time.Second)
	for closes.Load() < 2 {
		select {
		case <-deadline:
			t.Fatalf("after dropped conn: %d session halves closed, want 2", closes.Load())
		case <-time.After(5 * time.Millisecond):
		}
	}

	// The dead session refuses further records on the client half...
	if _, err := c.Query("query on the corpse"); err == nil {
		t.Fatal("query on a dropped connection succeeded")
	}

	// ...and a reconnect re-attests from scratch: fresh session, counters
	// from zero.
	c2 := d.dial(t)
	if _, err := c2.Query("query after reconnect"); err != nil {
		t.Fatalf("reconnect query: %v", err)
	}
	seqMu.Lock()
	defer seqMu.Unlock()
	for s, seq := range firstSeq {
		if seq != 0 {
			t.Fatalf("session %p started sending at seq %d, want 0 (leaked nonce state)", s, seq)
		}
	}
}

// TestServiceServerCloseClosesSessions: the server's graceful teardown also
// releases every responder session half (not just abrupt drops).
func TestServiceServerCloseClosesSessions(t *testing.T) {
	var closes atomic.Int64
	securechan.SetCloseObserver(func(*securechan.Session) { closes.Add(1) })
	defer securechan.SetCloseObserver(nil)

	d := startTestDaemon(t, "close-secret")
	c := d.dial(t)
	if _, err := c.Query("before close"); err != nil {
		t.Fatal(err)
	}
	d.srv.Close()

	deadline := time.After(5 * time.Second)
	for closes.Load() < 2 {
		select {
		case <-deadline:
			t.Fatalf("after server close: %d session halves closed, want 2", closes.Load())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if _, err := c.Query("after close"); err == nil {
		t.Fatal("query after server close succeeded")
	}
}

// TestServiceRejectsQueryBeforeAttestation: a query frame on an unattested
// connection cuts it.
func TestServiceRejectsQueryBeforeAttestation(t *testing.T) {
	d := startTestDaemon(t, "order-secret")

	pool := NewPool(PoolConfig{ID: "rogue", RequestTimeout: 2 * time.Second})
	defer pool.Close()
	_, _, err := pool.RoundTrip(d.srv.Addr().String(), frameQuery, []byte("not even encrypted"))
	if err == nil {
		t.Fatal("unattested query answered")
	}
	if !errors.Is(err, ErrConnClosed) && !errors.Is(err, ErrRequestTimeout) {
		t.Fatalf("err = %v, want connection cut", err)
	}
}
