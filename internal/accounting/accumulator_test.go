package accounting

import (
	"sync"
	"testing"
)

func TestCounterHandleCommitThreshold(t *testing.T) {
	c := NewCounter()
	h := c.Handle(4)
	for i := 0; i < 3; i++ {
		h.Add(1)
	}
	// Below threshold: nothing committed yet, but Sum is still exact.
	if got := c.committed.Load(); got != 0 {
		t.Fatalf("committed = %d before threshold, want 0", got)
	}
	if got := c.Sum(); got != 3 {
		t.Fatalf("Sum = %d, want 3", got)
	}
	h.Add(1) // crosses threshold 4
	if got := c.committed.Load(); got != 4 {
		t.Fatalf("committed = %d after threshold, want 4", got)
	}
	if got := c.Sum(); got != 4 {
		t.Fatalf("Sum = %d, want 4", got)
	}
}

func TestCounterNegativeDeltas(t *testing.T) {
	c := NewCounter()
	h := c.Handle(5)
	for i := 0; i < 4; i++ {
		h.Add(-1)
	}
	if got := c.Sum(); got != -4 {
		t.Fatalf("Sum = %d, want -4", got)
	}
	h.Add(-1) // |pending| hits threshold
	if got := c.committed.Load(); got != -5 {
		t.Fatalf("committed = %d, want -5", got)
	}
}

func TestCounterCloseFlushes(t *testing.T) {
	c := NewCounter()
	h := c.Handle(1000)
	h.Add(7)
	h.Close()
	if got := c.committed.Load(); got != 7 {
		t.Fatalf("committed after Close = %d, want 7", got)
	}
	if got := c.Sum(); got != 7 {
		t.Fatalf("Sum after Close = %d, want 7", got)
	}
	h.Close() // idempotent
	if got := c.Sum(); got != 7 {
		t.Fatalf("Sum after double Close = %d, want 7", got)
	}
	// A closed handle still counts (direct commit), so late increments from
	// a retiring owner are never lost.
	h.Add(2)
	if got := c.Sum(); got != 9 {
		t.Fatalf("Sum after Add-on-closed = %d, want 9", got)
	}
}

func TestCounterDirectAdd(t *testing.T) {
	c := NewCounter()
	c.Add(5)
	c.Add(-2)
	if got := c.Sum(); got != 3 {
		t.Fatalf("Sum = %d, want 3", got)
	}
}

func TestCounterDefaultThreshold(t *testing.T) {
	c := NewCounter()
	h := c.Handle(0)
	if h.threshold != DefaultCommitThreshold {
		t.Fatalf("threshold = %d, want default %d", h.threshold, DefaultCommitThreshold)
	}
	h.Close()
}

func TestCounterConcurrentExactness(t *testing.T) {
	c := NewCounter()
	const (
		owners = 8
		perOwn = 10_000
	)
	var wg sync.WaitGroup
	done := make(chan struct{})
	// A reader hammers Sum concurrently; every observed value must be
	// within [0, owners*perOwn] and monotonicity is not required, only
	// bounds (handles commit at arbitrary instants).
	go func() {
		for {
			select {
			case <-done:
				return
			default:
			}
			if s := c.Sum(); s < 0 || s > owners*perOwn {
				panic("Sum out of bounds")
			}
		}
	}()
	for i := 0; i < owners; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := c.Handle(32)
			for j := 0; j < perOwn; j++ {
				h.Add(1)
			}
			h.Close()
		}()
	}
	wg.Wait()
	close(done)
	if got := c.Sum(); got != owners*perOwn {
		t.Fatalf("Sum = %d, want %d", got, owners*perOwn)
	}
}

// TestHandleAddAllocs: a relay charges its per-session handle on every
// forward it serves, committing to the shared counter once per threshold;
// neither the buffered add nor the commit may allocate.
func TestHandleAddAllocs(t *testing.T) {
	c := NewCounter()
	h := c.Handle(DefaultCommitThreshold)
	defer h.Close()
	if n := testing.AllocsPerRun(4*DefaultCommitThreshold, func() { h.Add(1) }); n > 0 {
		t.Errorf("Handle.Add allocates %.2f times per op, want 0", n)
	}
}
