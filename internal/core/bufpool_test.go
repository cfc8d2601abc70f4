package core

import (
	"testing"

	"cyclosa/internal/testutil"
)

// putBuf keeps a buffer up to maxPooledBuf and drops a larger one, so one
// oversize record does not leave its buffer circulating.
func TestPutBufDropsOversizeBuffers(t *testing.T) {
	// pooled reports whether a put buffer of capacity size comes back from
	// the pool. A put-then-get on one goroutine returns the buffer just put
	// unless the processor's slot was taken or the goroutine moved to another
	// processor in between, hence the retries.
	pooled := func(size int) bool {
		for try := 0; try < 10; try++ {
			b := make([]byte, 0, size)
			putBuf(&b)
			got := getBuf()
			if got == &b {
				return true
			}
		}
		return false
	}
	if pooled(maxPooledBuf + 1) {
		t.Errorf("a buffer of %d bytes was pooled, want dropped", maxPooledBuf+1)
	}
	// The race detector makes the pool drop puts at random.
	if !testutil.RaceEnabled && !pooled(maxPooledBuf) {
		t.Errorf("a buffer of %d bytes was dropped, want pooled", maxPooledBuf)
	}
}
