// Package workers holds the one lingering-worker loop every hop of a
// protected search runs on, and the pooled wait timers that go with it.
//
// A Pool hands a job to a goroutine that is already parked if there is one,
// and otherwise starts a new goroutine that lingers after its job for the
// next. It has no size and no queue: a job never waits behind a busy
// worker, so progress is exactly that of a bare `go` statement — a job
// blocked on a hung peer delays nobody — while a steady request rate reuses
// a small set of goroutines. Reuse is what saves the time: a goroutine
// starts on a 2 KiB stack and copies it every time it doubles on the way
// down a deep call chain, and a warm worker keeps its grown stack, so the
// copies are paid once per worker instead of once per job.
//
// The pool is generic over the job value, so a caller passes a pointer or a
// small struct through the channel without wrapping it in a closure; the
// hand-off itself allocates nothing.
//
// The idle check is lazy: a worker notes that it ran a job and looks at that
// note only when its linger timer fires, re-arming the timer if it was busy.
// No timer is stopped or reset around a job. An idle worker is therefore
// gone between one and two lingers after its last job, or at once when the
// pool is stopped.
//
// Three pools exist, told apart on /metrics by the pool label of
// cyclosa_workers_spawned_total: "path" (core.Node.Search's k+1 forwards),
// "dispatch" (nettrans.Server's exchanges) and "engine" (backend.Stack's
// watchdog-supervised engine calls). A flat counter under load means
// goroutines are being reused.
package workers
