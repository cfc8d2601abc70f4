package backend

import (
	"fmt"
	"sync/atomic"
	"time"

	"cyclosa/internal/searchengine"
)

// BrownoutProfile describes a degraded engine: each call independently
// draws an error, a hang, and added latency from the seeded stream.
type BrownoutProfile struct {
	// ErrorRate is the per-call probability of an engine error in [0, 1].
	ErrorRate float64
	// Latency is added to every call (latency spike amplitude).
	Latency time.Duration
	// HangRate is the per-call probability of a hang in [0, 1].
	HangRate float64
	// Hang is the stall duration of a hung call (the call then errors —
	// an engine that stalled that long did not produce a usable page).
	Hang time.Duration
}

// FaultyConfig configures a Faulty engine.
type FaultyConfig struct {
	// Seed drives every fault draw; the same seed over the same call
	// sequence injects the same faults.
	Seed int64
	// Inner is the engine answering the calls that survive injection; nil
	// means instant empty pages (NullBackend behavior).
	Inner Engine
	// ErrorRate and Latency apply while healthy (defaults: perfect engine).
	ErrorRate float64
	Latency   time.Duration
	// Brownout applies instead while browned out (see SetBrownout).
	Brownout BrownoutProfile
}

// Faulty is the engine-side fault injector: the simnet-style seeded chaos
// source for the decorator stack. It is safe for concurrent use; brownout
// toggles atomically mid-flight. Fault draws are deterministic per (seed,
// call index) — under concurrency the index assignment order is scheduler
// dependent, but the aggregate fault mix for a seed is reproducible.
type Faulty struct {
	cfg      FaultyConfig
	browned  atomic.Bool
	callSeq  atomic.Uint64
	injErrs  atomic.Uint64
	injHangs atomic.Uint64
}

// NewFaulty builds a fault-injecting engine.
func NewFaulty(cfg FaultyConfig) *Faulty { return &Faulty{cfg: cfg} }

// SetBrownout switches between the healthy and brownout profiles.
func (f *Faulty) SetBrownout(on bool) { f.browned.Store(on) }

// Injected reports the number of injected errors and hangs so far.
func (f *Faulty) Injected() (errs, hangs uint64) {
	return f.injErrs.Load(), f.injHangs.Load()
}

// Search implements Engine with fault injection in front of the inner
// engine.
func (f *Faulty) Search(source, query string, now time.Time) ([]searchengine.Result, error) {
	idx := f.callSeq.Add(1)
	errRate, lat := f.cfg.ErrorRate, f.cfg.Latency
	hangRate, hang := 0.0, time.Duration(0)
	if f.browned.Load() {
		p := f.cfg.Brownout
		errRate, lat = p.ErrorRate, p.Latency
		hangRate, hang = p.HangRate, p.Hang
	}
	if hangRate > 0 && f.draw(idx, 0x68616e67) < hangRate {
		f.injHangs.Add(1)
		time.Sleep(hang)
		return nil, fmt.Errorf("faulty: engine stalled %v on call %d", hang, idx)
	}
	if lat > 0 {
		time.Sleep(lat)
	}
	if errRate > 0 && f.draw(idx, 0x65727273) < errRate {
		f.injErrs.Add(1)
		return nil, fmt.Errorf("faulty: engine 503 on call %d", idx)
	}
	if f.cfg.Inner != nil {
		return f.cfg.Inner.Search(source, query, now)
	}
	return nil, nil
}

// draw maps (seed, call index, salt) to a uniform float in [0, 1) via
// splitmix64 — the same deterministic-draw discipline simnet uses for
// delivery faults.
func (f *Faulty) draw(idx uint64, salt uint64) float64 {
	z := uint64(f.cfg.Seed)*0x9E3779B97F4A7C15 + idx*0xBF58476D1CE4E5B9 + salt
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / float64(1<<53)
}
