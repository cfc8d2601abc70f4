package nettrans

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
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

// TestRetiredFrameTypesCutConnection: frame types 6 and 7 (the retired
// query/answer pair of the single-hop service) and 11 and 12 (its
// query-batch pair) are refused with ErrFrameType at the header on both
// connection roles, and the connection is cut.
func TestRetiredFrameTypesCutConnection(t *testing.T) {
	for _, typ := range []frameType{6, 7, 11, 12} {
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

// bloatedHost is a session host whose key-exchange reply is as large as the
// test wants.
type bloatedHost struct {
	echoConduit
	reply int
}

func (b bloatedHost) Attest(_, _ string, _ []byte) ([]byte, error) { return make([]byte, b.reply), nil }
func (bloatedHost) SkipRecord(_, _ string, _ []byte) error         { return nil }
func (bloatedHost) DropSession(_, _ string)                        {}

// TestAttestHandshakeBound pins maxHandshakeLen on both directions of an
// attest exchange at 64 KiB ± 1: an unauthenticated peer's offer is parsed
// before anything about it is verified, so it may not use the frame limit,
// and neither may what a server answers. Every refusal is an err frame on a
// connection that stays up.
func TestAttestHandshakeBound(t *testing.T) {
	if maxHandshakeLen != 64<<10 {
		t.Fatalf("maxHandshakeLen = %d, want 64 KiB", maxHandshakeLen)
	}
	for _, tc := range []struct {
		name         string
		offer, reply int
		refused      bool
	}{
		{"offer one under", maxHandshakeLen - 1, 8, false},
		{"offer at the bound", maxHandshakeLen, 8, false},
		{"offer one over", maxHandshakeLen + 1, 8, true},
		{"reply one under", 8, maxHandshakeLen - 1, false},
		{"reply at the bound", 8, maxHandshakeLen, false},
		{"reply one over", 8, maxHandshakeLen + 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := startEchoServer(t, ServerConfig{Handler: bloatedHost{reply: tc.reply}})
			p := NewPool(PoolConfig{ID: "prober", RequestTimeout: 2 * time.Second})
			defer p.Close()
			dials := mDialOK.Value()

			offer := make([]byte, tc.offer)
			_, _, _, derr := decodeAttestPayload(appendAttestPayload(nil, "prober", "relay", offer))
			if over := tc.offer > maxHandshakeLen; (derr != nil) != over {
				t.Fatalf("decoding a %d-byte offer: err = %v", tc.offer, derr)
			}
			h, buf, err := p.RoundTrip(srv.Addr().String(), frameAttest, appendAttestPayload(nil, "prober", "relay", offer))
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			putFrame(buf)
			if want := map[bool]frameType{true: frameErr, false: frameAttest}[tc.refused]; h.typ != want {
				t.Fatalf("answer frame type %d, want %d", h.typ, want)
			}

			// The conduit enforces the same bound on what it sends and accepts.
			tcp := NewTCPConduit(ConduitConfig{Resolve: StaticResolver(map[string]string{"relay": srv.Addr().String()}), Pool: p})
			reply, err := tcp.Attest("prober", "relay", offer)
			switch {
			case tc.refused && err == nil:
				t.Fatal("conduit let an oversize handshake message through")
			case tc.refused && tc.reply > maxHandshakeLen && !errors.Is(err, ErrAttestRejected):
				t.Fatalf("oversize reply: err = %v, want ErrAttestRejected", err)
			case !tc.refused && (err != nil || len(reply) != tc.reply):
				t.Fatalf("in-bound exchange: %d-byte reply, err %v", len(reply), err)
			}
			if got := mDialOK.Value() - dials; got != 1 {
				t.Fatalf("%d dials: a refused handshake must not cost the connection", got)
			}
		})
	}
}
