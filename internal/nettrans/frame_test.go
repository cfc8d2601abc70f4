package nettrans

import (
	"bytes"
	"cyclosa/internal/testutil"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"cyclosa/internal/wire"
)

func TestFrameHeaderRoundTrip(t *testing.T) {
	var hdr [headerSize]byte
	putHeader(&hdr, frameData, 0xDEADBEEFCAFE, 12345)
	h, err := parseHeader(&hdr, DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if h.typ != frameData || h.stream != 0xDEADBEEFCAFE || h.length != 12345 {
		t.Fatalf("round trip mangled header: %+v", h)
	}
}

func TestFrameHeaderRejectsHostileInput(t *testing.T) {
	valid := func() [headerSize]byte {
		var hdr [headerSize]byte
		putHeader(&hdr, frameData, 7, 64)
		return hdr
	}

	t.Run("bad magic", func(t *testing.T) {
		hdr := valid()
		hdr[0] = 'G' // a stray HTTP client, say
		if _, err := parseHeader(&hdr, DefaultMaxFrame); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("unknown version", func(t *testing.T) {
		hdr := valid()
		hdr[2] = ProtoVersion + 1
		if _, err := parseHeader(&hdr, DefaultMaxFrame); !errors.Is(err, ErrFrameVersion) {
			t.Fatalf("err = %v, want ErrFrameVersion", err)
		}
	})
	t.Run("unknown type", func(t *testing.T) {
		hdr := valid()
		hdr[3] = byte(frameTypeMax) + 1
		if _, err := parseHeader(&hdr, DefaultMaxFrame); !errors.Is(err, ErrFrameType) {
			t.Fatalf("err = %v, want ErrFrameType", err)
		}
		hdr[3] = 0
		if _, err := parseHeader(&hdr, DefaultMaxFrame); !errors.Is(err, ErrFrameType) {
			t.Fatalf("zero type err = %v, want ErrFrameType", err)
		}
	})
	t.Run("oversized length", func(t *testing.T) {
		hdr := valid()
		binary.BigEndian.PutUint32(hdr[12:16], uint32(DefaultMaxFrame+1))
		if _, err := parseHeader(&hdr, DefaultMaxFrame); !errors.Is(err, ErrFrameOversize) {
			t.Fatalf("err = %v, want ErrFrameOversize", err)
		}
	})
}

// TestFrameHeaderTypeTable pins which type bytes parseHeader lets through:
// 6 and 7 (the retired query/answer pair) and 11 and 12 (the retired
// query-batch pair) are refused like 0 and anything past the last known
// type, while their neighbours and 13 keep their numbers.
func TestFrameHeaderTypeTable(t *testing.T) {
	for _, tc := range []struct {
		typ     byte
		refused bool
	}{
		{0, true},
		{byte(frameAttest), false},
		{6, true},
		{7, true},
		{byte(frameGoaway), false},
		{byte(frameView), false},
		{11, true},
		{12, true},
		{13, false},
		{14, true},
	} {
		var hdr [headerSize]byte
		putHeader(&hdr, frameType(tc.typ), 7, 64)
		h, err := parseHeader(&hdr, DefaultMaxFrame)
		if tc.refused {
			if !errors.Is(err, ErrFrameType) {
				t.Errorf("type %d: err = %v, want ErrFrameType", tc.typ, err)
			}
		} else if err != nil || h.typ != frameType(tc.typ) {
			t.Errorf("type %d: header %+v err %v, want accepted", tc.typ, h, err)
		}
	}
	if frameAttest != 5 || frameGoaway != 8 || frameAccounting != 13 || ProtoVersion != 1 {
		t.Fatalf("frameAttest = %d, frameGoaway = %d, frameAccounting = %d, ProtoVersion = %d: wire numbers moved",
			frameAttest, frameGoaway, frameAccounting, ProtoVersion)
	}
}

func TestPayloadCodecsRoundTrip(t *testing.T) {
	hello := appendHelloPayload(nil, "node-7")
	id, err := decodeHelloPayload(hello)
	if err != nil || string(id) != "node-7" {
		t.Fatalf("hello round trip: id=%q err=%v", id, err)
	}

	record := []byte("sealed-record-bytes")
	data := appendDataMeta(nil, 42, "client-1", "relay-2", len(record))
	data = append(data, record...)
	nowNano, from, to, rec, err := decodeDataPayload(data)
	if err != nil {
		t.Fatal(err)
	}
	if nowNano != 42 || string(from) != "client-1" || string(to) != "relay-2" || !bytes.Equal(rec, record) {
		t.Fatalf("data round trip mangled: now=%d from=%q to=%q rec=%q", nowNano, from, to, rec)
	}

	resp := appendRespMeta(nil, 1234, len(record))
	resp = append(resp, record...)
	inj, rec, err := decodeRespPayload(resp)
	if err != nil || inj != 1234 || !bytes.Equal(rec, record) {
		t.Fatalf("resp round trip: inj=%d rec=%q err=%v", inj, rec, err)
	}

	ep := appendErrPayload(nil, errCodeUnavailable, "gone fishing")
	code, msg, err := decodeErrPayload(ep)
	if err != nil || code != errCodeUnavailable || string(msg) != "gone fishing" {
		t.Fatalf("err round trip: code=%d msg=%q err=%v", code, msg, err)
	}

	offer := []byte(`{"publicKey":"AAAA","quote":null}`)
	from, to, got, err := decodeAttestPayload(appendAttestPayload(nil, "client-1", "relay-2", offer))
	if err != nil || string(from) != "client-1" || string(to) != "relay-2" || !bytes.Equal(got, offer) {
		t.Fatalf("attest round trip: from=%q to=%q offer=%q err=%v", from, to, got, err)
	}
}

// TestPayloadCodecsRejectTruncation feeds every proper prefix of each valid
// payload to its decoder: all must fail cleanly, none may panic.
func TestPayloadCodecsRejectTruncation(t *testing.T) {
	record := []byte("sealed-record-bytes")
	data := appendDataMeta(nil, 42, "client-1", "relay-2", len(record))
	data = append(data, record...)
	for n := 0; n < len(data); n++ {
		if _, _, _, _, err := decodeDataPayload(data[:n]); err == nil {
			t.Fatalf("truncated data frame (%d/%d bytes) accepted", n, len(data))
		}
	}

	resp := appendRespMeta(nil, 9, len(record))
	resp = append(resp, record...)
	for n := 0; n < len(resp); n++ {
		if _, _, err := decodeRespPayload(resp[:n]); err == nil {
			t.Fatalf("truncated resp frame (%d/%d bytes) accepted", n, len(resp))
		}
	}

	for n := 0; n < 2; n++ {
		if _, _, err := decodeErrPayload(appendErrPayload(nil, 1, "x")[:n]); err == nil {
			t.Fatalf("truncated err frame (%d bytes) accepted", n)
		}
	}

	attest := appendAttestPayload(nil, "client-1", "relay-2", record)
	for n := 0; n < len(attest); n++ {
		if _, _, _, err := decodeAttestPayload(attest[:n]); err == nil {
			t.Fatalf("truncated attest frame (%d/%d bytes) accepted", n, len(attest))
		}
	}
}

func TestPayloadCodecsRejectTrailingGarbage(t *testing.T) {
	record := []byte("rec")
	data := appendDataMeta(nil, 1, "a", "b", len(record))
	data = append(data, record...)
	data = append(data, 0xFF)
	if _, _, _, _, err := decodeDataPayload(data); err == nil {
		t.Fatal("data frame with trailing garbage accepted")
	}

	resp := appendRespMeta(nil, 1, len(record))
	resp = append(resp, record...)
	resp = append(resp, 0xFF)
	if _, _, err := decodeRespPayload(resp); err == nil {
		t.Fatal("resp frame with trailing garbage accepted")
	}

	if _, _, _, err := decodeAttestPayload(append(appendAttestPayload(nil, "a", "b", record), 0xFF)); err == nil {
		t.Fatal("attest frame with trailing garbage accepted")
	}
}

// TestDataPayloadRejectsOversizeFields rejects length fields beyond their
// bounds before any allocation based on them.
func TestDataPayloadRejectsOversizeFields(t *testing.T) {
	var data []byte
	data = binary.BigEndian.AppendUint64(data, 1)
	data = binary.AppendUvarint(data, maxNodeIDLen+1) // from length beyond bound
	data = append(data, bytes.Repeat([]byte{'a'}, 16)...)
	if _, _, _, _, err := decodeDataPayload(data); !errors.Is(err, wire.ErrOversize) {
		t.Fatalf("err = %v, want wire.ErrOversize", err)
	}
}

// TestConnRejectsHostileStream drives a real frameConn with wire garbage.
func TestConnRejectsHostileStream(t *testing.T) {
	feed := func(t *testing.T, raw []byte) error {
		t.Helper()
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		go func() {
			a.Write(raw)
			a.Close()
		}()
		fc := newFrameConn(b, DefaultMaxFrame, writeOptions{})
		_, buf, err := fc.readFrame(time.Second)
		if buf != nil {
			putFrame(buf)
		}
		return err
	}

	t.Run("garbage bytes", func(t *testing.T) {
		if err := feed(t, []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n")); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("oversized frame", func(t *testing.T) {
		var hdr [headerSize]byte
		putHeader(&hdr, frameData, 1, 10)
		binary.BigEndian.PutUint32(hdr[12:16], uint32(DefaultMaxFrame+1))
		if err := feed(t, hdr[:]); !errors.Is(err, ErrFrameOversize) {
			t.Fatalf("err = %v, want ErrFrameOversize", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		var hdr [headerSize]byte
		putHeader(&hdr, frameData, 1, 10)
		if err := feed(t, hdr[:7]); err == nil {
			t.Fatal("truncated header accepted")
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		var hdr [headerSize]byte
		putHeader(&hdr, frameData, 1, 100)
		raw := append(hdr[:], []byte("only-some-bytes")...)
		if err := feed(t, raw); err == nil {
			t.Fatal("truncated payload accepted")
		}
	})
}

func TestWriteFrameRejectsOversizePayload(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	fc := newFrameConn(b, 1024, writeOptions{})
	if err := fc.writeFrame(frameData, 1, make([]byte, 2048)); !errors.Is(err, ErrFrameOversize) {
		t.Fatalf("err = %v, want ErrFrameOversize", err)
	}
}

// TestFramePathAllocs pins the steady-state frame codec path at zero
// allocations: header encode/decode plus data/resp payload encode/decode in
// pooled buffers — the per-exchange work of the TCP hot path outside the
// socket itself.
func TestFramePathAllocs(t *testing.T) {
	record := bytes.Repeat([]byte{0x5c}, 580)
	meta := make([]byte, 0, 256)
	frame := make([]byte, 0, 1024)
	var hdr [headerSize]byte

	allocs := testing.AllocsPerRun(2000, func() {
		// Client side: encode the data frame.
		meta = appendDataMeta(meta[:0], 1700000000, "client-17", "relay-03", len(record))
		putHeader(&hdr, frameData, 99, len(meta)+len(record))
		// Server side: parse and decode.
		h, err := parseHeader(&hdr, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		frame = append(append(frame[:0], meta...), record...)
		_, _, _, rec, err := decodeDataPayload(frame[:h.length])
		if err != nil {
			t.Fatal(err)
		}
		// Server side: encode the response; client side: decode it.
		meta = appendRespMeta(meta[:0], 0, len(rec))
		frame = append(append(frame[:0], meta...), rec...)
		if _, _, err := decodeRespPayload(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("frame path allocates: %.1f allocs/op, want 0", allocs)
	}

	if testutil.RaceEnabled {
		return // race instrumentation adds allocations to what follows
	}

	// The same frames through the sockets: one blocking exchange over a warm
	// connection, both ends in this process. What is left is the stream's
	// result channel at the client and the two id strings the server hands
	// its Handler; the data frame reaches its dispatch worker by value, not
	// in a closure.
	srv := startEchoServer(t, ServerConfig{Handler: loopbackConduit{}})
	tcp := NewTCPConduit(ConduitConfig{Resolve: StaticResolver(map[string]string{"relay-03": srv.Addr().String()})})
	defer tcp.Close()
	exchange := func() {
		if _, _, err := tcp.Deliver("client-17", "relay-03", record, time.Unix(0, 1700000000)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		exchange()
	}
	allocs = testing.AllocsPerRun(1000, exchange)
	t.Logf("one exchange over a warm connection: %.1f allocs", allocs)
	if allocs > exchangeAllocBudget {
		t.Fatalf("one exchange over a warm connection allocates %.1f times, budget %d", allocs, exchangeAllocBudget)
	}
}

// exchangeAllocBudget bounds a whole blocking exchange, client and server.
const exchangeAllocBudget = 4

// loopbackConduit answers every record with itself, allocating nothing.
type loopbackConduit struct{}

func (loopbackConduit) Deliver(_, _ string, payload []byte, _ time.Time) ([]byte, time.Duration, error) {
	return payload, 0, nil
}
