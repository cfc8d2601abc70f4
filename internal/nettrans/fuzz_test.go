package nettrans

import (
	"bytes"
	"reflect"
	"testing"

	"cyclosa/internal/enclave"
	"cyclosa/internal/securechan"
)

// FuzzFramePayloads hammers every decoder that faces the socket — the frame
// header and the hello/data/resp/err/attest payloads, plus the handshake
// offer an attest frame carries, parsed before its sender is verified — with
// arbitrary bytes: none may panic, and whatever one accepts must re-encode
// to bytes that decode to the same values. Seeded with the payloads
// frame_test.go's round-trip cases encode.
func FuzzFramePayloads(f *testing.F) {
	record := []byte("sealed-record-bytes")
	var hdr [headerSize]byte
	putHeader(&hdr, frameData, 0xDEADBEEFCAFE, 12345)
	offer, err := (&securechan.HandshakeMsg{PublicKey: []byte("thirty-two-byte-x25519-publickey"), Quote: &enclave.Quote{PlatformID: "sgx-7"}}).Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(hdr[:])
	f.Add(appendHelloPayload(nil, "node-7"))
	f.Add(append(appendDataMeta(nil, 42, "client-1", "relay-2", len(record)), record...))
	f.Add(append(appendRespMeta(nil, 1234, len(record)), record...))
	f.Add(appendErrPayload(nil, errCodeUnavailable, "gone fishing"))
	f.Add(appendAttestPayload(nil, "client-1", "relay-2", offer))
	f.Add(offer)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= headerSize {
			src := (*[headerSize]byte)(data[:headerSize])
			if h, err := parseHeader(src, DefaultMaxFrame); err == nil {
				var re [headerSize]byte
				putHeader(&re, h.typ, h.stream, int(h.length))
				if re != *src {
					t.Fatalf("header re-encode mismatch: %x -> %+v -> %x", *src, h, re)
				}
			}
		}
		if id, err := decodeHelloPayload(data); err == nil {
			id2, err := decodeHelloPayload(appendHelloPayload(nil, string(id)))
			if err != nil || !bytes.Equal(id2, id) {
				t.Fatalf("hello re-encode mismatch: %q -> %q (%v)", id, id2, err)
			}
		}
		if now, from, to, rec, err := decodeDataPayload(data); err == nil {
			re := append(appendDataMeta(nil, now, string(from), string(to), len(rec)), rec...)
			now2, from2, to2, rec2, err := decodeDataPayload(re)
			if err != nil || now2 != now || !bytes.Equal(from2, from) || !bytes.Equal(to2, to) || !bytes.Equal(rec2, rec) {
				t.Fatalf("data re-encode mismatch: %v", err)
			}
		}
		if inj, rec, err := decodeRespPayload(data); err == nil {
			inj2, rec2, err := decodeRespPayload(append(appendRespMeta(nil, inj, len(rec)), rec...))
			if err != nil || inj2 != inj || !bytes.Equal(rec2, rec) {
				t.Fatalf("resp re-encode mismatch: %v", err)
			}
		}
		if code, msg, err := decodeErrPayload(data); err == nil {
			code2, msg2, err := decodeErrPayload(appendErrPayload(nil, code, string(msg)))
			if err != nil || code2 != code || !bytes.Equal(msg2, msg) {
				t.Fatalf("err re-encode mismatch: %v", err)
			}
		}
		if from, to, offer, err := decodeAttestPayload(data); err == nil {
			from2, to2, offer2, err := decodeAttestPayload(appendAttestPayload(nil, string(from), string(to), offer))
			if err != nil || !bytes.Equal(from2, from) || !bytes.Equal(to2, to) || !bytes.Equal(offer2, offer) {
				t.Fatalf("attest re-encode mismatch: %v", err)
			}
		}
		if msg, err := securechan.UnmarshalHandshakeMsg(data); err == nil {
			raw, err := msg.Marshal()
			if err != nil {
				t.Fatalf("accepted handshake message does not marshal: %v", err)
			}
			msg2, err := securechan.UnmarshalHandshakeMsg(raw)
			if err != nil || !reflect.DeepEqual(msg2, msg) {
				t.Fatalf("handshake re-encode mismatch: %+v -> %+v (%v)", msg, msg2, err)
			}
		}
	})
}
