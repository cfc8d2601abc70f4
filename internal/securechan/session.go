package securechan

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cyclosa/internal/enclave"
)

// NonceObserver receives every nonce counter a session consumes: one call
// per sealed record (send true) and one per successfully opened record
// (send false). It exists for protocol invariant checking — internal/simnet
// installs one to prove AEAD nonces never repeat under a key, across
// sessions too (Session.KeyFingerprint) — and is invoked under the session
// mutex, so it must be fast and must not call back into the session.
type NonceObserver func(s *Session, send bool, seq uint64)

// nonceObserver is the process-wide observer; nil (the default) costs one
// atomic load per record on the hot path.
var nonceObserver atomic.Pointer[NonceObserver]

// SetNonceObserver installs (or, with nil, removes) the process-wide nonce
// observer. Test instrumentation only: install before the sessions under
// observation are created and remove when done.
func SetNonceObserver(f NonceObserver) {
	if f == nil {
		nonceObserver.Store(nil)
		return
	}
	nonceObserver.Store(&f)
}

// CloseObserver is notified once when a session transitions to closed. It
// lets per-session bookkeeping keyed by live *Session pointers (the simnet
// nonce checker) release entries for sessions the protocol has discarded,
// so long runs with many break/re-attest cycles stay bounded. Invoked under
// the session mutex; same constraints as NonceObserver.
type CloseObserver func(s *Session)

var closeObserver atomic.Pointer[CloseObserver]

// SetCloseObserver installs (or, with nil, removes) the process-wide close
// observer. Test instrumentation only.
func SetCloseObserver(f CloseObserver) {
	if f == nil {
		closeObserver.Store(nil)
		return
	}
	closeObserver.Store(&f)
}

// Session errors.
var (
	ErrDecrypt  = errors.New("securechan: decryption failed (tampered, replayed or out of order)")
	ErrClosed   = errors.New("securechan: session closed")
	ErrTooShort = errors.New("securechan: message too short")
)

// maxNonceSize bounds the per-session nonce scratch arrays (GCM's standard
// nonce is 12 bytes; newSession rejects anything larger).
const maxNonceSize = 16

// Session is one direction-aware end of an established secure channel. It
// encrypts outgoing messages under the send key and decrypts incoming
// messages under the receive key, with strictly increasing counter nonces:
// a replayed or reordered record fails authentication.
type Session struct {
	mu       sync.Mutex
	sendAEAD cipher.AEAD
	recvAEAD cipher.AEAD
	sendSeq  uint64
	recvSeq  uint64
	peer     enclave.Measurement
	closed   bool
	keyPrint [16]byte

	// Nonce scratch arrays, reused under mu so the hot path never allocates
	// a nonce. Only the trailing 8 bytes are rewritten per record; the
	// leading bytes stay zero.
	sendNonce [maxNonceSize]byte
	recvNonce [maxNonceSize]byte
}

func newSession(sendKey, recvKey [32]byte, peer enclave.Measurement) (*Session, error) {
	mk := func(key [32]byte) (cipher.AEAD, error) {
		block, err := aes.NewCipher(key[:])
		if err != nil {
			return nil, err
		}
		return cipher.NewGCM(block)
	}
	send, err := mk(sendKey)
	if err != nil {
		return nil, fmt.Errorf("session send key: %w", err)
	}
	recv, err := mk(recvKey)
	if err != nil {
		return nil, fmt.Errorf("session recv key: %w", err)
	}
	if send.NonceSize() > maxNonceSize || recv.NonceSize() > maxNonceSize {
		return nil, fmt.Errorf("securechan: AEAD nonce size exceeds %d bytes", maxNonceSize)
	}
	sess := &Session{sendAEAD: send, recvAEAD: recv, peer: peer}
	sum := sha256.Sum256(append(sendKey[:], recvKey[:]...))
	copy(sess.keyPrint[:], sum[:])
	return sess, nil
}

// PeerMeasurement returns the attested code identity of the remote enclave.
func (s *Session) PeerMeasurement() enclave.Measurement { return s.peer }

// KeyFingerprint identifies the session's pair of directional keys (a hash,
// not the keys): two sessions with the same fingerprint seal and open under
// the same keys, so their counter nonces must never overlap. Nonce
// observers use it to check uniqueness across sessions; it never changes
// and may be read under the session mutex.
func (s *Session) KeyFingerprint() [16]byte { return s.keyPrint }

// EncryptAppend seals a message for the peer, appending the record to dst
// and returning the extended slice. The 8-byte record sequence number is
// prepended in clear (it is authenticated via the nonce). With a dst of
// sufficient capacity the call performs no allocation. plaintext must not
// overlap dst's spare capacity.
func (s *Session) EncryptAppend(dst, plaintext []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	nonce := s.sendNonce[:s.sendAEAD.NonceSize()]
	binary.BigEndian.PutUint64(nonce[len(nonce)-8:], s.sendSeq)
	off := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, s.sendSeq)
	if obs := nonceObserver.Load(); obs != nil {
		(*obs)(s, true, s.sendSeq)
	}
	s.sendSeq++
	return s.sendAEAD.Seal(dst, nonce, plaintext, dst[off:off+8]), nil
}

// DecryptAppend opens a record from the peer, appending the plaintext to
// dst and returning the extended slice. Records must arrive in order; a
// record whose sequence number does not match the session state is rejected
// (this is what defeats replay, §VI-b). With a dst of sufficient capacity
// the call performs no allocation. record must not overlap dst's spare
// capacity.
func (s *Session) DecryptAppend(dst, record []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if len(record) < 8 {
		return nil, ErrTooShort
	}
	seq := binary.BigEndian.Uint64(record[:8])
	if seq != s.recvSeq {
		return nil, fmt.Errorf("%w: got seq %d, want %d", ErrDecrypt, seq, s.recvSeq)
	}
	nonce := s.recvNonce[:s.recvAEAD.NonceSize()]
	binary.BigEndian.PutUint64(nonce[len(nonce)-8:], seq)
	pt, err := s.recvAEAD.Open(dst, nonce, record[8:], record[:8])
	if err != nil {
		return nil, ErrDecrypt
	}
	if obs := nonceObserver.Load(); obs != nil {
		(*obs)(s, false, seq)
	}
	s.recvSeq++
	return pt, nil
}

// Skip consumes a record's sequence number without opening it. The service
// edge uses this to shed over-quota records before spending AEAD work on
// them: the strict counter-nonce discipline means a record can never simply
// be ignored (the next DecryptAppend would see a mismatched sequence and
// poison the session), so shedding must still advance the receive counter.
// The clear 8-byte sequence prefix is checked against the session state —
// replayed or reordered records are rejected exactly as in DecryptAppend —
// and the nonce observer fires so strict-sequence invariant checkers stay
// consistent. The record's payload is discarded unauthenticated; that is
// acceptable because the throttling decision was made before, and
// independent of, its content.
func (s *Session) Skip(record []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if len(record) < 8 {
		return ErrTooShort
	}
	seq := binary.BigEndian.Uint64(record[:8])
	if seq != s.recvSeq {
		return fmt.Errorf("%w: got seq %d, want %d", ErrDecrypt, seq, s.recvSeq)
	}
	if obs := nonceObserver.Load(); obs != nil {
		(*obs)(s, false, seq)
	}
	s.recvSeq++
	return nil
}

// Close invalidates the session. Idempotent; the close observer fires only
// on the open -> closed transition.
func (s *Session) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if obs := closeObserver.Load(); obs != nil {
		(*obs)(s)
	}
}
