// Package securechan implements the attested secure channels CYCLOSA uses
// between enclaves and toward the search engine (§IV, §V-F). The paper links
// an SGX-compatible mbedTLS into the enclave; this reproduction provides the
// equivalent: an X25519 key exchange bound to enclave identity via remote
// attestation (the quote's report data commits to the handshake key), HKDF
// key derivation and AES-256-GCM record protection with deterministic
// counter nonces (replay of a record is rejected because the receiver's
// counter has moved on).
//
// Each enclave has one X25519 key, quoted once when its Handshaker is built;
// the verifier checks each quote's signature once per process
// (enclave.Verifier). What makes a session's keys its own is the pair of
// random nonces the two offers carry, which salt HKDF with the two public
// keys: a re-attested pair never derives an earlier session's keys, so its
// counters may restart at zero. There is no forward secrecy: a leaked
// enclave handshake key exposes every session that enclave took part in.
//
// The package is message-oriented and carries nothing itself: a Handshaker
// produces and verifies the two HandshakeMsg offers of a key exchange, and
// the Session they establish seals and opens individual records. Whoever
// uses it moves the bytes — in process for two members of one core.Network
// (EstablishPair), as attest and data frames of internal/nettrans between
// processes.
package securechan

import (
	"crypto/hmac"
	"crypto/sha256"
)

// hkdfExtract implements RFC 5869 HKDF-Extract with SHA-256.
func hkdfExtract(salt, ikm []byte) []byte {
	if len(salt) == 0 {
		salt = make([]byte, sha256.Size)
	}
	mac := hmac.New(sha256.New, salt)
	mac.Write(ikm)
	return mac.Sum(nil)
}

// hkdfExpand implements RFC 5869 HKDF-Expand with SHA-256.
func hkdfExpand(prk, info []byte, length int) []byte {
	var (
		out  []byte
		prev []byte
	)
	for i := byte(1); len(out) < length; i++ {
		mac := hmac.New(sha256.New, prk)
		mac.Write(prev)
		mac.Write(info)
		mac.Write([]byte{i})
		prev = mac.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length]
}

// deriveKeys derives the two directional AES-256 keys from the ECDH shared
// secret and the handshake transcript hash (both public keys and both
// nonces).
func deriveKeys(shared, transcript []byte) (initiatorKey, responderKey [32]byte) {
	prk := hkdfExtract(transcript, shared)
	okm := hkdfExpand(prk, []byte("cyclosa-securechan-v2"), 64)
	copy(initiatorKey[:], okm[:32])
	copy(responderKey[:], okm[32:])
	return initiatorKey, responderKey
}
