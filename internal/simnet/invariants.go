package simnet

import (
	"bytes"
	"fmt"
	"sync"

	"cyclosa/internal/enclave"
	"cyclosa/internal/securechan"
)

// Sentinel is the substring every chaos-run query carries (bootstrap
// entries, workload queries and therefore every fake drawn from a table).
// It is what makes plaintext confinement machine-checkable: twelve bytes
// this distinctive appear in honest ciphertext or fabricated garbage with
// negligible probability, so any sighting outside the allowed frames is a
// leak.
const Sentinel = "#chaosq:7f3a#"

// Invariants checks protocol invariants continuously during a run and
// records violations (bounded) instead of panicking, so one failing run
// reports every broken property. All methods are safe for concurrent use.
type Invariants struct {
	sentinel []byte

	mu         sync.Mutex
	violations []string
	overflow   uint64
	// nonces tracks the next expected counter per (session, direction):
	// AEAD nonces here are counters, so uniqueness is exactly strict
	// sequentiality. Entries are dropped when the session closes (the core
	// layer closes every half it discards on breakPair/re-attest), so the
	// map tracks live sessions only and long chaos soaks stay bounded.
	nonces map[nonceKey]uint64
	// keys tracks the same counters per (key fingerprint, direction), across
	// the sessions that used those keys: a session that re-derived an
	// earlier session's keys (a re-attestation without fresh nonces) would
	// reuse (key, nonce) pairs, and strict sequence within each session
	// cannot see that. Unlike nonces it is never pruned: a closed session's
	// keys coming back is exactly the reuse it exists to catch. It grows by
	// one small entry per session direction for the length of a run, and
	// pins no session past its close.
	keys map[keyDir]keyUse
	// checked counters prove the checkers actually ran.
	wireScans  uint64
	gateScans  uint64
	nonceScans uint64
}

type nonceKey struct {
	sess *securechan.Session
	send bool
}

type keyDir struct {
	key  [16]byte
	send bool
}

// keyUse is how far the counters under one key and direction have gone:
// spent by sessions that are closed or have stopped using it, next by the
// session using it now (owner, nil if none).
type keyUse struct {
	owner *securechan.Session
	spent uint64
	next  uint64
}

// maxViolations bounds the violation list.
const maxViolations = 64

// NewInvariants builds a checker watching for the given sentinel (use the
// package Sentinel unless the driver synthesizes its own queries).
func NewInvariants(sentinel string) *Invariants {
	return &Invariants{
		sentinel: []byte(sentinel),
		nonces:   make(map[nonceKey]uint64),
		keys:     make(map[keyDir]keyUse),
	}
}

// Install hooks the checker into the securechan nonce stream and the
// enclave call gate, returning an uninstall func. Install before building
// the network under test (sessions must be observed from their first
// record) and uninstall when the run ends; the hooks are process-wide, so
// runs using them must not overlap.
func (v *Invariants) Install() (uninstall func()) {
	securechan.SetNonceObserver(func(s *securechan.Session, send bool, seq uint64) {
		v.observeNonce(s, s.KeyFingerprint(), send, seq)
	})
	securechan.SetCloseObserver(v.observeClose)
	enclave.SetGateObserver(v.observeGate)
	return func() {
		securechan.SetNonceObserver(nil)
		securechan.SetCloseObserver(nil)
		enclave.SetGateObserver(nil)
	}
}

// Violations returns the recorded violations and how many overflowed the
// list; an empty list from a run whose checkers were exercised means every
// invariant held.
func (v *Invariants) Violations() ([]string, uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make([]string, len(v.violations))
	copy(out, v.violations)
	return out, v.overflow
}

// Scans reports how many frames each checker examined — a determinism
// anchor and a guard against silently-disconnected checkers.
func (v *Invariants) Scans() (wire, gate, nonce uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.wireScans, v.gateScans, v.nonceScans
}

func (v *Invariants) violate(format string, args ...any) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.violateLocked(format, args...)
}

// violateLocked records a violation; the caller holds v.mu.
func (v *Invariants) violateLocked(format string, args ...any) {
	if len(v.violations) >= maxViolations {
		v.overflow++
		return
	}
	v.violations = append(v.violations, fmt.Sprintf(format, args...))
}

// checkWire asserts the confinement invariants on one conduit frame: no
// self-delivery, and no sentinel (every inter-node record is encrypted; a
// plaintext query on the wire is the §IV failure mode).
func (v *Invariants) checkWire(from, to string, frame []byte) {
	v.mu.Lock()
	v.wireScans++
	v.mu.Unlock()
	if from == to {
		v.violate("self-delivery: %s forwarded through itself", from)
	}
	if bytes.Contains(frame, v.sentinel) {
		v.violate("plaintext query on the wire %s->%s (%d-byte frame)", from, to, len(frame))
	}
}

// observeGate asserts plaintext confinement at the enclave boundary: the
// sentinel may cross the call gate only inside the "engine" ocall — the
// frame modelling the enclave's TLS tunnel to the search engine — never in
// any other ecall or ocall frame.
func (v *Invariants) observeGate(e *enclave.Enclave, dir enclave.GateDir, name string, args []byte) {
	v.mu.Lock()
	v.gateScans++
	v.mu.Unlock()
	if !bytes.Contains(args, v.sentinel) {
		return
	}
	if dir == enclave.GateOCall && name == "engine" {
		return
	}
	kind := "ecall"
	if dir == enclave.GateOCall {
		kind = "ocall"
	}
	v.violate("plaintext query crossed the enclave boundary in %s %q", kind, name)
}

// observeNonce asserts nonce uniqueness for one record of session s, whose
// keys have fingerprint key. Within the session the counters must be
// strictly sequential from zero in each direction; across sessions, none may
// reach a counter another session under the same keys already used.
// Together these mean no (key, nonce) pair ever repeats.
func (v *Invariants) observeNonce(s *securechan.Session, key [16]byte, send bool, seq uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.nonceScans++

	kd := keyDir{key: key, send: send}
	use := v.keys[kd]
	if use.owner != s {
		use.spent = max(use.spent, use.next)
		use.owner, use.next = s, 0
	}
	if seq < use.spent {
		v.violateLocked("nonce reused across sessions (%s): key %x, seq %d, %d already spent", direction(send), key[:4], seq, use.spent)
	}
	use.next = max(use.next, seq+1)
	v.keys[kd] = use

	sk := nonceKey{sess: s, send: send}
	want := v.nonces[sk]
	if seq != want {
		v.violateLocked("nonce counter out of sequence (%s): got %d, want %d", direction(send), seq, want)
		if seq < want {
			return // never wind a counter back: that is the reuse we guard against
		}
	}
	v.nonces[sk] = seq + 1
}

func direction(send bool) string {
	if send {
		return "send"
	}
	return "recv"
}

// observeClose releases the nonce bookkeeping of a discarded session. A
// closed session refuses every further record, so its counters can never be
// consulted again; without this, breakPair -> re-attest cycles would grow
// the map (and pin the dead sessions) for the length of a soak. What it
// spent under its keys stays counted.
func (v *Invariants) observeClose(s *securechan.Session) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, send := range [2]bool{true, false} {
		delete(v.nonces, nonceKey{sess: s, send: send})
		kd := keyDir{key: s.KeyFingerprint(), send: send}
		if use, ok := v.keys[kd]; ok && use.owner == s {
			v.keys[kd] = keyUse{spent: max(use.spent, use.next)}
		}
	}
}
