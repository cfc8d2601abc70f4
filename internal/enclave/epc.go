package enclave

import "sync"

// DefaultEPCLimit is the SGX enclave page cache limit the paper cites
// (128 MB, §II-B).
const DefaultEPCLimit int64 = 128 << 20

// pageSize is the SGX page granularity.
const pageSize = 4096

// EPC models the enclave page cache: allocations within the limit are free;
// beyond it every page faults (the driver swaps it through encrypted
// memory, tens of microseconds each in the SecureKeeper/SCONE measurements
// the paper cites). CYCLOSA
// keeps its enclave at 1.7 MB precisely to stay on the cheap side of this
// cliff (§V-F); the EPC model lets the ablation benchmarks show the cliff.
type EPC struct {
	mu         sync.Mutex
	limit      int64
	used       int64
	pageFaults uint64
}

// NewEPC creates an EPC model with the given limit (DefaultEPCLimit if
// limit <= 0).
func NewEPC(limit int64) *EPC {
	if limit <= 0 {
		limit = DefaultEPCLimit
	}
	return &EPC{limit: limit}
}

// Limit returns the EPC size.
func (e *EPC) Limit() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.limit
}

// Used returns the currently allocated enclave memory.
func (e *EPC) Used() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.used
}

// PageFaults returns the number of simulated EPC page faults.
func (e *EPC) PageFaults() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pageFaults
}

// Alloc reserves n bytes of enclave memory. Allocations always succeed (the
// driver swaps), but pages beyond the EPC limit register page faults.
func (e *EPC) Alloc(n int64) {
	if n <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	before := e.used
	e.used += n
	if e.used > e.limit {
		over := e.used - maxInt64(before, e.limit)
		if over > 0 {
			e.pageFaults += uint64((over + pageSize - 1) / pageSize)
		}
	}
}

// Free releases n bytes of enclave memory.
func (e *EPC) Free(n int64) {
	if n <= 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.used -= n
	if e.used < 0 {
		e.used = 0
	}
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
