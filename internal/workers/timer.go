package workers

import (
	"sync"
	"time"
)

// timerPool recycles wait timers (a round trip's request timeout, the
// engine watchdog's deadline) so the hot path does not start a fresh
// runtime timer per wait.
var timerPool sync.Pool

// GetTimer returns a timer that fires after d.
func GetTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// PutTimer stops t, drains it if it already fired unread, and recycles it.
// The caller must not use t afterwards.
func PutTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}
