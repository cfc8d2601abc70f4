package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Trace is one sampled query lifecycle: which peer handled it, how it
// ended, and how long each stage took. Client-side forwards fill
// Encrypt/Deliver/Splice; relay-side serves fill Decrypt/Engine/Seal.
// Stage fields are nanoseconds; zero stages are omitted from JSON.
//
// Traces are recorded by value with pre-interned outcome strings so the
// hot path does not allocate.
type Trace struct {
	Op            string `json:"op"`
	Peer          string `json:"peer,omitempty"`
	Outcome       string `json:"outcome"`
	StartUnixNano int64  `json:"start_unix_nano"`
	TotalNS       int64  `json:"total_ns"`
	EncryptNS     int64  `json:"encrypt_ns,omitempty"`
	DeliverNS     int64  `json:"deliver_ns,omitempty"`
	SpliceNS      int64  `json:"splice_ns,omitempty"`
	DecryptNS     int64  `json:"decrypt_ns,omitempty"`
	EngineNS      int64  `json:"engine_ns,omitempty"`
	SealNS        int64  `json:"seal_ns,omitempty"`
}

type traceSlot struct {
	mu  sync.Mutex
	seq uint64 // global sequence of the stored trace; 0 = empty
	t   Trace
}

// TraceRing keeps the last N traces in a fixed ring. Writers reserve a
// slot with one atomic increment and publish under a per-slot latch, so
// recording is wait-free with respect to other slots, never blocks on
// readers for long, and never allocates. A slow writer that was lapped
// loses to the newer trace occupying its slot rather than resurrecting
// stale data.
type TraceRing struct {
	seq   atomic.Uint64
	slots []traceSlot
}

// DefaultTraceDepth is the capacity of the process-wide trace ring.
const DefaultTraceDepth = 256

var defaultTraces = NewTraceRing(DefaultTraceDepth)

// Traces returns the process-wide trace ring sampled by instrumented
// packages and exposed at /debug/traces.
func Traces() *TraceRing { return defaultTraces }

// NewTraceRing returns a ring holding the last n traces. n is clamped to
// at least 1.
func NewTraceRing(n int) *TraceRing {
	if n < 1 {
		n = 1
	}
	return &TraceRing{slots: make([]traceSlot, n)}
}

// Record stores t as the newest trace, evicting the oldest.
func (r *TraceRing) Record(t Trace) {
	seq := r.seq.Add(1)
	s := &r.slots[(seq-1)%uint64(len(r.slots))]
	s.mu.Lock()
	if seq > s.seq {
		s.seq = seq
		s.t = t
	}
	s.mu.Unlock()
}

// Snapshot returns the recorded traces, newest first.
func (r *TraceRing) Snapshot() []Trace {
	type seqTrace struct {
		seq uint64
		t   Trace
	}
	tmp := make([]seqTrace, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		s.mu.Lock()
		if s.seq > 0 {
			tmp = append(tmp, seqTrace{s.seq, s.t})
		}
		s.mu.Unlock()
	}
	sort.Slice(tmp, func(i, j int) bool { return tmp[i].seq > tmp[j].seq })
	out := make([]Trace, len(tmp))
	for i, st := range tmp {
		out[i] = st.t
	}
	return out
}
