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
// A hand-off is one channel operation. Every idle worker parks on a
// one-slot channel of its own, and the parked workers form a stack under
// the pool's mutex. Go pops the most recently parked worker and sends it
// the job; the worker does a plain receive, with no select and no timer of
// its own. LIFO reuse keeps the workers a steady rate needs hot at the top
// of the stack and leaves the surplus at the bottom, where it ages out.
//
// Ageing is one janitor per pool: a single runtime timer, armed only while
// some worker is idle, that ticks every Linger and ends the workers that
// were already parked at the previous tick. An idle worker is therefore
// gone between one and two lingers after its last job, or at once when the
// pool is stopped. A tick touches only those old workers, so a Go at the
// same instant either takes one of them first or finds the rest parked as
// usual.
//
// The pool is generic over the job value, so a caller passes a pointer or a
// small struct through the channel without wrapping it in a closure; the
// hand-off itself allocates nothing.
//
// Three pools exist, told apart on /metrics by the pool label of
// cyclosa_workers_spawned_total: "path" (core.Node.Search's forwards that
// leave the search goroutine, and the in-process conduit's helpers),
// "dispatch" (nettrans.Server's exchanges) and "engine" (backend.Stack's
// watchdog-supervised engine calls). A flat counter under load means
// goroutines are being reused.
package workers
