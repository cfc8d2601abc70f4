// Package enclave simulates the Intel SGX trusted-execution substrate that
// CYCLOSA builds on (§II-B, §V-F). The real hardware is unavailable in this
// reproduction, so the package provides a software model that preserves the
// properties the paper relies on:
//
//   - code identity — an enclave has a measurement (hash of its code) and
//     only registered trusted functions are reachable, through an
//     ecall/ocall call gate;
//   - memory confidentiality — enclave state can be sealed (AES-GCM under a
//     measurement-derived key), so host-side inspection yields ciphertext;
//   - the EPC limit — enclave memory beyond the 128 MB enclave page cache
//     triggers a paging penalty, the SGX performance cliff the paper avoids
//     by keeping its enclave at 1.7 MB;
//   - remote attestation — enclaves produce quotes signed by a per-platform
//     key; a simulated Intel Attestation Service verifies platform
//     genuineness, and peers check the measurement against known-good
//     values before exchanging secrets.
//
// The simulation is honest about what it is: it does not defend against a
// malicious host process in the same address space (no software can); it
// enforces the same API boundary so that CYCLOSA's code paths, protocol
// messages and failure modes match the SGX-based design.
package enclave

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Measurement is the SHA-256 hash identifying an enclave's code (MRENCLAVE).
type Measurement [32]byte

// String renders the measurement as a short hex prefix.
func (m Measurement) String() string { return fmt.Sprintf("%x", m[:8]) }

// MeasureCode computes the measurement of an enclave code identity. In real
// SGX this hashes the loaded pages; here it hashes the code identity string
// and version supplied by the builder.
func MeasureCode(name string, version int) Measurement {
	h := sha256.New()
	fmt.Fprintf(h, "enclave:%s:v%d", name, version)
	var m Measurement
	copy(m[:], h.Sum(nil))
	return m
}

// Errors returned by the enclave runtime.
var (
	ErrDestroyed     = errors.New("enclave: destroyed")
	ErrUnknownECall  = errors.New("enclave: unknown ecall")
	ErrSealCorrupted = errors.New("enclave: sealed blob corrupted or wrong enclave")
)

// ECall is a trusted function callable through the call gate. Arguments and
// results cross the boundary as opaque byte slices, mirroring the SDK's
// marshalled ecall interface.
type ECall func(args []byte) ([]byte, error)

// OCall is an untrusted callback the enclave may invoke (e.g. network I/O).
type OCall func(args []byte) ([]byte, error)

// GateDir tells a gate observer which way a frame crossed the boundary.
type GateDir int

// Gate directions.
const (
	// GateECall is a host-to-enclave call (the args are host-visible).
	GateECall GateDir = iota + 1
	// GateOCall is an enclave-to-host callback (the args leave the enclave).
	GateOCall
)

// GateObserver receives every frame crossing any enclave's call gate, before
// the registered function runs. It exists for boundary invariant checking —
// internal/simnet installs one to prove plaintext queries only ever cross
// the boundary inside the frames modelling the enclave's TLS tunnel to the
// engine. Observers must treat args as read-only and must not call back
// into the enclave.
type GateObserver func(e *Enclave, dir GateDir, name string, args []byte)

// gateObserver is the process-wide observer; nil (the default) costs one
// atomic load per gate crossing.
var gateObserver atomic.Pointer[GateObserver]

// SetGateObserver installs (or, with nil, removes) the process-wide gate
// observer. Test instrumentation only.
func SetGateObserver(f GateObserver) {
	if f == nil {
		gateObserver.Store(nil)
		return
	}
	gateObserver.Store(&f)
}

// Stats reports call-gate, quote and memory counters.
type Stats struct {
	ECalls     uint64
	OCalls     uint64
	Quotes     uint64
	EPCUsed    int64
	EPCLimit   int64
	PageFaults uint64
}

// Enclave is a simulated SGX enclave instance.
//
// The call gate is lock-free: Call and OCall touch only atomics (the
// destroyed flag, the call counters and a copy-on-write function table), so
// concurrent forwards never serialize on the enclave mutex. The mutex
// remains for the cold paths — registration, sealing and teardown.
type Enclave struct {
	measurement Measurement
	platform    *Platform

	mu      sync.Mutex // guards registration writes and sealKey
	sealKey [32]byte
	epc     *EPC

	destroyed atomic.Bool
	ecalls    atomic.Pointer[map[string]ECall]
	ocalls    atomic.Pointer[map[string]OCall]

	ecallCount atomic.Uint64
	ocallCount atomic.Uint64
	quoteCount atomic.Uint64
}

// Config controls enclave creation.
type Config struct {
	// Name and Version define the code identity (the measurement).
	Name    string
	Version int
	// EPCLimitBytes bounds the enclave page cache (default 128 MiB, the SGX
	// hardware restriction the paper cites).
	EPCLimitBytes int64
}

// New creates an enclave on the platform. The seal key is derived from the
// platform's sealing secret and the measurement, so sealed data can only be
// unsealed by the same enclave identity on the same platform — SGX's
// MRENCLAVE sealing policy.
func (p *Platform) New(cfg Config) *Enclave {
	if cfg.EPCLimitBytes == 0 {
		cfg.EPCLimitBytes = 128 << 20
	}
	m := MeasureCode(cfg.Name, cfg.Version)
	mac := hmac.New(sha256.New, p.sealSecret[:])
	mac.Write(m[:])
	var sealKey [32]byte
	copy(sealKey[:], mac.Sum(nil))

	e := &Enclave{
		measurement: m,
		platform:    p,
		sealKey:     sealKey,
		epc:         NewEPC(cfg.EPCLimitBytes),
	}
	ecalls := make(map[string]ECall)
	ocalls := make(map[string]OCall)
	e.ecalls.Store(&ecalls)
	e.ocalls.Store(&ocalls)
	return e
}

// Measurement returns the enclave's code identity.
func (e *Enclave) Measurement() Measurement { return e.measurement }

// EPC returns the enclave's page-cache model.
func (e *Enclave) EPC() *EPC { return e.epc }

// RegisterECall installs a trusted function. Registration happens at enclave
// build time (it is part of the measured code), so it is not callable after
// the first ecall in real SGX; the simulation allows it any time before
// Destroy for test convenience.
func (e *Enclave) RegisterECall(name string, fn ECall) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := *e.ecalls.Load()
	next := make(map[string]ECall, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = fn
	e.ecalls.Store(&next)
}

// RegisterOCall installs an untrusted callback reachable from inside.
func (e *Enclave) RegisterOCall(name string, fn OCall) {
	e.mu.Lock()
	defer e.mu.Unlock()
	old := *e.ocalls.Load()
	next := make(map[string]OCall, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[name] = fn
	e.ocalls.Store(&next)
}

// Call performs an ecall through the call gate (lock-free).
func (e *Enclave) Call(name string, args []byte) ([]byte, error) {
	if e.destroyed.Load() {
		return nil, ErrDestroyed
	}
	e.ecallCount.Add(1)
	if obs := gateObserver.Load(); obs != nil {
		(*obs)(e, GateECall, name, args)
	}
	fn, ok := (*e.ecalls.Load())[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownECall, name)
	}
	return fn(args)
}

// OCall invokes an untrusted callback from enclave code (lock-free).
func (e *Enclave) OCall(name string, args []byte) ([]byte, error) {
	if e.destroyed.Load() {
		return nil, ErrDestroyed
	}
	e.ocallCount.Add(1)
	if obs := gateObserver.Load(); obs != nil {
		(*obs)(e, GateOCall, name, args)
	}
	fn, ok := (*e.ocalls.Load())[name]
	if !ok {
		return nil, fmt.Errorf("%w: ocall %q", ErrUnknownECall, name)
	}
	return fn(args)
}

// Destroy tears the enclave down; further calls fail with ErrDestroyed and
// the seal key is wiped. The flag is set under the mutex so Seal/Unseal
// (which read the key under the same mutex) can never observe the wiped
// key without also observing the flag.
func (e *Enclave) Destroy() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.destroyed.Store(true)
	e.sealKey = [32]byte{}
}

// Destroyed reports whether Destroy has run.
func (e *Enclave) Destroyed() bool { return e.destroyed.Load() }

// Stats returns current counters.
func (e *Enclave) Stats() Stats {
	return Stats{
		ECalls:     e.ecallCount.Load(),
		OCalls:     e.ocallCount.Load(),
		Quotes:     e.quoteCount.Load(),
		EPCUsed:    e.epc.Used(),
		EPCLimit:   e.epc.Limit(),
		PageFaults: e.epc.PageFaults(),
	}
}

// Seal encrypts data under the enclave's seal key with AES-GCM. The result
// can only be unsealed by an enclave with the same measurement on the same
// platform.
func (e *Enclave) Seal(data []byte) ([]byte, error) {
	e.mu.Lock()
	if e.destroyed.Load() {
		e.mu.Unlock()
		return nil, ErrDestroyed
	}
	key := e.sealKey
	e.mu.Unlock()

	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("seal: %w", err)
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("seal nonce: %w", err)
	}
	return gcm.Seal(nonce, nonce, data, e.measurement[:]), nil
}

// Unseal decrypts a sealed blob. It fails with ErrSealCorrupted if the blob
// was produced by a different enclave identity or tampered with.
func (e *Enclave) Unseal(blob []byte) ([]byte, error) {
	e.mu.Lock()
	if e.destroyed.Load() {
		e.mu.Unlock()
		return nil, ErrDestroyed
	}
	key := e.sealKey
	e.mu.Unlock()

	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("unseal: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("unseal: %w", err)
	}
	if len(blob) < gcm.NonceSize() {
		return nil, ErrSealCorrupted
	}
	nonce, ct := blob[:gcm.NonceSize()], blob[gcm.NonceSize():]
	pt, err := gcm.Open(nil, nonce, ct, e.measurement[:])
	if err != nil {
		return nil, ErrSealCorrupted
	}
	return pt, nil
}

// Quote produces an attestation quote over reportData, signed with the
// platform's attestation key (the simulated equivalent of the quoting
// enclave + EPID/DCAP key).
func (e *Enclave) Quote(reportData []byte) (*Quote, error) {
	if e.destroyed.Load() {
		return nil, ErrDestroyed
	}
	e.quoteCount.Add(1)
	return e.platform.quote(e.measurement, reportData), nil
}

// Platform models one SGX-capable machine: it holds the per-platform sealing
// secret and attestation signing key.
type Platform struct {
	id         string
	sealSecret [32]byte
	signKey    ed25519.PrivateKey
	pubKey     ed25519.PublicKey
}

// NewPlatform creates a platform with fresh keys. Genuine platforms register
// themselves with the IAS they are manufactured for.
func NewPlatform(id string, ias *IAS) (*Platform, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("platform keygen: %w", err)
	}
	p := &Platform{id: id, signKey: priv, pubKey: pub}
	if _, err := rand.Read(p.sealSecret[:]); err != nil {
		return nil, fmt.Errorf("platform seal secret: %w", err)
	}
	if ias != nil {
		ias.register(id, pub)
	}
	return p, nil
}

// NewDeterministicPlatform derives the platform's keys from a shared secret
// and the platform id, so cooperating processes can reconstruct each other's
// attestation roots without a live key-distribution service (the demo-mode
// stand-in for Intel provisioning). Not for production use: anyone with the
// secret can mint "genuine" platforms.
func NewDeterministicPlatform(id string, secret []byte, ias *IAS) *Platform {
	mac := hmac.New(sha256.New, secret)
	mac.Write([]byte("platform-sign:" + id))
	signSeed := mac.Sum(nil)
	priv := ed25519.NewKeyFromSeed(signSeed[:ed25519.SeedSize])
	pub, _ := priv.Public().(ed25519.PublicKey)

	p := &Platform{id: id, signKey: priv, pubKey: pub}
	mac = hmac.New(sha256.New, secret)
	mac.Write([]byte("platform-seal:" + id))
	copy(p.sealSecret[:], mac.Sum(nil))
	if ias != nil {
		ias.register(id, pub)
	}
	return p
}

// ID returns the platform identifier.
func (p *Platform) ID() string { return p.id }

func (p *Platform) quote(m Measurement, reportData []byte) *Quote {
	q := &Quote{
		PlatformID:  p.id,
		Measurement: m,
	}
	copy(q.ReportData[:], reportData)
	q.Signature = ed25519.Sign(p.signKey, q.signedBytes())
	return q
}
