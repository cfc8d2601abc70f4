package nettrans

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cyclosa/internal/backend"
	"cyclosa/internal/core"
	"cyclosa/internal/enclave"
	"cyclosa/internal/searchengine"
	"cyclosa/internal/securechan"
)

func TestHelloPayloadRejectsHostileInput(t *testing.T) {
	if _, err := decodeHelloPayload(nil); err == nil {
		t.Fatal("empty hello accepted")
	}
	if _, err := decodeHelloPayload([]byte{ProtoVersion + 1, 0}); !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("wrong-proto hello err = %v, want ErrFrameVersion", err)
	}
	good := appendHelloPayload(nil, "id")
	if _, err := decodeHelloPayload(append(good, 0xFF)); err == nil {
		t.Fatal("hello with trailing garbage accepted")
	}
	if _, err := decodeHelloPayload(good[:2]); err == nil {
		t.Fatal("truncated hello accepted")
	}
}

func TestErrPayloadTruncatesOversizedMessage(t *testing.T) {
	huge := strings.Repeat("x", maxErrMsgLen+100)
	code, msg, err := decodeErrPayload(appendErrPayload(nil, errCodeRejected, huge))
	if err != nil || code != errCodeRejected {
		t.Fatalf("code=%d err=%v", code, err)
	}
	if len(msg) != maxErrMsgLen {
		t.Fatalf("msg length %d, want truncation to %d", len(msg), maxErrMsgLen)
	}
}

// TestRetiredFrameTypesCutConnection: frame types 11 and 12 (the retired
// query-batch pair) are refused with ErrFrameType at the header on both
// connection roles, and the connection is cut.
func TestRetiredFrameTypesCutConnection(t *testing.T) {
	for _, typ := range []frameType{11, 12} {
		t.Run(fmt.Sprintf("server/0x%02X", byte(typ)), func(t *testing.T) {
			refused := make(chan error, 1)
			srv := startEchoServer(t, ServerConfig{Logf: func(_ string, args ...any) {
				for _, a := range args {
					if err, ok := a.(error); ok && errors.Is(err, ErrFrameType) {
						select {
						case refused <- err:
						default:
						}
					}
				}
			}})
			p := NewPool(PoolConfig{RequestTimeout: 2 * time.Second})
			defer p.Close()
			_, buf, err := p.RoundTrip(srv.Addr().String(), typ, []byte("payload"))
			if buf != nil {
				putFrame(buf)
			}
			if !errors.Is(err, ErrConnClosed) {
				t.Fatalf("err = %v, want the connection cut", err)
			}
			select {
			case <-refused:
			case <-time.After(2 * time.Second):
				t.Fatal("server read loop did not report ErrFrameType")
			}
		})
		t.Run(fmt.Sprintf("pool/0x%02X", byte(typ)), func(t *testing.T) {
			// A rogue peer: hello, then a retired-type frame as the answer.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				nc, err := ln.Accept()
				if err != nil {
					return
				}
				defer nc.Close()
				fc := newFrameConn(nc, DefaultMaxFrame, writeOptions{})
				if _, err := fc.expectHello(time.Second); err != nil || fc.sendHello("rogue") != nil {
					return
				}
				h, buf, err := fc.readFrame(time.Second)
				if err != nil {
					return
				}
				putFrame(buf)
				if fc.writeFrame(typ, h.stream, []byte("payload")) != nil {
					return
				}
				fc.readFrame(2 * time.Second) //nolint:errcheck // hold the socket until the pool cuts it
			}()
			p := NewPool(PoolConfig{RequestTimeout: 2 * time.Second})
			defer p.Close()
			_, buf, err := echoRoundTrip(t, p, ln.Addr().String(), "x")
			if buf != nil {
				putFrame(buf)
			}
			if !errors.Is(err, ErrConnClosed) || !strings.Contains(err.Error(), ErrFrameType.Error()) {
				t.Fatalf("err = %v, want ErrConnClosed caused by ErrFrameType", err)
			}
		})
	}
}

// flakyBackend fails queries containing "refuse" and stalls on "stall".
type flakyBackend struct{ stall time.Duration }

func (b flakyBackend) Search(_, query string, _ time.Time) ([]searchengine.Result, error) {
	if strings.Contains(query, "refuse") {
		return nil, searchengine.ErrRateLimited
	}
	if strings.Contains(query, "stall") && b.stall > 0 {
		time.Sleep(b.stall)
	}
	return []searchengine.Result{{Title: "t", URL: "https://x"}}, nil
}

// startFlakyDaemon serves the attested service over the flaky backend.
func startFlakyDaemon(t *testing.T, stall time.Duration) (*Server, *securechan.Handshaker) {
	t.Helper()
	ias := enclave.NewIAS()
	verifier := enclave.NewVerifier(ias, enclave.MeasureCode(core.EnclaveName, core.EnclaveVersion))
	plat := enclave.NewDeterministicPlatform("flaky-relay", []byte("flaky"), ias)
	hsRelay, err := securechan.NewHandshaker(plat.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion}), verifier)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{
		ID:      "flaky-daemon",
		Service: &RelayService{Handshaker: hsRelay, Backend: flakyBackend{stall: stall}, Source: "flaky-daemon"},
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	clientPlat := enclave.NewDeterministicPlatform("flaky-client", []byte("flaky"), ias)
	hsClient, err := securechan.NewHandshaker(clientPlat.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion}), verifier)
	if err != nil {
		t.Fatal(err)
	}
	return srv, hsClient
}

// TestServiceEngineRefusalSurfacesCleanly: a backend refusal travels back
// as ErrEngineRefused — the transport worked, the engine said no — and the
// session keeps serving.
func TestServiceEngineRefusalSurfacesCleanly(t *testing.T) {
	srv, hs := startFlakyDaemon(t, 0)
	c, err := DialService(srv.Addr().String(), hs, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.PeerMeasurement() == "" {
		t.Fatal("no attested measurement")
	}

	if _, err := c.Query("please refuse this"); !errors.Is(err, ErrEngineRefused) {
		t.Fatalf("err = %v, want ErrEngineRefused", err)
	}
	results, err := c.Query("a good query")
	if err != nil || len(results) != 1 {
		t.Fatalf("session did not survive the refusal: results=%v err=%v", results, err)
	}
}

// TestServiceEngineClassSurvivesWire: when the daemon's backend is the
// resilience stack, the typed failure class (here a watchdog timeout)
// travels the attested wire inside the engineErr string and the client
// recovers it — callers can errors.Is both ErrEngineRefused and the
// backend taxonomy sentinel.
func TestServiceEngineClassSurvivesWire(t *testing.T) {
	ias := enclave.NewIAS()
	verifier := enclave.NewVerifier(ias, enclave.MeasureCode(core.EnclaveName, core.EnclaveVersion))
	plat := enclave.NewDeterministicPlatform("stack-relay", []byte("stack"), ias)
	hsRelay, err := securechan.NewHandshaker(plat.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion}), verifier)
	if err != nil {
		t.Fatal(err)
	}
	stack := backend.NewStack(flakyBackend{stall: 300 * time.Millisecond}, backend.Policy{
		Timeout:    30 * time.Millisecond,
		MaxRetries: -1, // clamped to 0: the timeout must surface, not retry
	})
	srv := NewServer(ServerConfig{
		ID:      "stack-daemon",
		Service: &RelayService{Handshaker: hsRelay, Backend: stack, Source: "stack-daemon"},
	})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	clientPlat := enclave.NewDeterministicPlatform("stack-client", []byte("stack"), ias)
	hsClient, err := securechan.NewHandshaker(clientPlat.New(enclave.Config{Name: core.EnclaveName, Version: core.EnclaveVersion}), verifier)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialService(srv.Addr().String(), hsClient, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, qerr := c.Query("stall me")
	if !errors.Is(qerr, ErrEngineRefused) {
		t.Fatalf("err = %v, want ErrEngineRefused", qerr)
	}
	if !errors.Is(qerr, backend.ErrEngineTimeout) {
		t.Fatalf("err = %v lost the taxonomy class, want backend.ErrEngineTimeout", qerr)
	}
}

// TestServiceQueryTimeout: a stalled engine times the query out without
// poisoning the stream table.
func TestServiceQueryTimeout(t *testing.T) {
	srv, hs := startFlakyDaemon(t, 400*time.Millisecond)
	c, err := DialService(srv.Addr().String(), hs, ClientConfig{RequestTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query("stall here"); err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
	// The late answer arrives, is decrypted in order and dropped; the
	// session then still answers fresh queries.
	time.Sleep(500 * time.Millisecond)
	if _, err := c.Query("a good query"); err != nil {
		t.Fatalf("session did not survive the timeout: %v", err)
	}
}

// TestServiceStalledQueryDoesNotBlockOthers: one stalled engine call times
// out on its own stream while queries issued alongside it on the same
// session are answered — or refused by the engine — each on its own stream,
// and the stalled query's late answer is dropped without killing the
// session.
func TestServiceStalledQueryDoesNotBlockOthers(t *testing.T) {
	srv, hs := startFlakyDaemon(t, 300*time.Millisecond)
	c, err := DialService(srv.Addr().String(), hs, ClientConfig{RequestTimeout: 80 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i == 0 {
				if _, err := c.Query("stall this one"); err == nil || !strings.Contains(err.Error(), "timed out") {
					errCh <- fmt.Errorf("stalled query: err = %v, want timeout", err)
				}
				return
			}
			if i%4 == 3 {
				if _, err := c.Query(fmt.Sprintf("refuse %d", i)); !errors.Is(err, ErrEngineRefused) {
					errCh <- fmt.Errorf("refused query %d: err = %v, want ErrEngineRefused", i, err)
				}
				return
			}
			results, err := c.Query(fmt.Sprintf("fast %d", i))
			if err != nil || len(results) != 1 || results[0].Title != "t" {
				errCh <- fmt.Errorf("fast query %d: results=%v err=%v", i, results, err)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	time.Sleep(400 * time.Millisecond) // the late answer arrives and is dropped
	if _, err := c.Query("after the late answer"); err != nil {
		t.Fatalf("session did not survive the late answer: %v", err)
	}
}

// TestServiceSessionOutlivesDialTimeout is the stale-deadline regression:
// the dial/hello/attest phase arms an absolute read deadline, and net.Conn
// deadlines persist until changed — a session idle past DialTimeout used to
// die of the leftover timeout. Both ends must survive an idle gap longer
// than every handshake deadline.
func TestServiceSessionOutlivesDialTimeout(t *testing.T) {
	srv, hs := startFlakyDaemon(t, 0)
	c, err := DialService(srv.Addr().String(), hs, ClientConfig{DialTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query("before the idle gap"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(900 * time.Millisecond) // well past DialTimeout
	if _, err := c.Query("after the idle gap"); err != nil {
		t.Fatalf("session died of a stale dial deadline: %v", err)
	}
}

// TestServiceOversizeQueryRejectedClientSide: the bound is enforced before
// anything is encrypted or sent.
func TestServiceOversizeQueryRejectedClientSide(t *testing.T) {
	srv, hs := startFlakyDaemon(t, 0)
	c, err := DialService(srv.Addr().String(), hs, ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(strings.Repeat("q", maxServiceQueryLen+1)); err == nil {
		t.Fatal("oversize query accepted")
	}
}
