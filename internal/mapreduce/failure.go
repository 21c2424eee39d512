package mapreduce

import (
	"context"
	"errors"
	"time"
)

// FailurePolicy tunes how Run responds to a failing map task. The
// paper's pipeline inherits fault tolerance from Spark, which re-runs
// failed tasks; this policy is the hand-rolled engine's equivalent, and
// it is safe precisely because the combiner is associative and
// commutative — a re-executed task's output meets the fold in a
// different order but yields the same reduction (the fusion laws of
// Theorems 5.4 and 5.5, exercised as a crash-safety oracle by
// internal/chaos). The zero value aborts the run on the first task
// failure.
type FailurePolicy struct {
	// Retries is the per-task retry budget (attempts beyond the first).
	// A failed task is re-attempted with exponential backoff and
	// deterministic jitter (see backoff) until it succeeds or the
	// budget runs out.
	Retries int
	// Skip quarantines a task whose budget is exhausted instead of
	// aborting: the run completes without the task's output, and the
	// quarantined tasks are reported in Stats.Quarantined and via the
	// mapreduce_skipped counter.
	Skip bool
}

// maxAttempts is the total attempt budget per task.
func (p FailurePolicy) maxAttempts() int {
	return 1 + max(p.Retries, 0)
}

// The retry schedule: the pause before the first retry, doubled on
// each further retry up to the cap.
const (
	baseBackoff = time.Millisecond
	maxBackoff  = 50 * time.Millisecond
)

// backoff returns the pause before retry attempt a (1-based) of task
// seq: exponential doubling from baseBackoff capped at maxBackoff,
// jittered deterministically into [d/2, d] by a hash of (seq, attempt),
// so retries of neighboring tasks spread out and a run's retry
// schedule is reproducible.
func backoff(seq, attempt int) time.Duration {
	d := maxBackoff
	if shift := attempt - 1; shift < 20 {
		if dd := baseBackoff << shift; dd < maxBackoff {
			d = dd
		}
	}
	half := d / 2
	h := mix64(uint64(seq)<<32 ^ uint64(attempt))
	return half + time.Duration(h%uint64(half+1))
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed hash
// used to derive deterministic jitter from (seq, attempt).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Fault is one artificial failure a FaultInjector injects into a task
// attempt.
type Fault struct {
	// Delay stalls the attempt before anything else runs — an
	// artificial straggler. Cancelling the run cuts it short.
	Delay time.Duration
	// Err, when non-nil, aborts the attempt with this error instead of
	// running the map function. Wrap it with Permanent to defeat the
	// retry machinery.
	Err error
}

// FaultInjector deterministically injects faults for chaos testing: it
// is consulted before every attempt (0-based) of every task (by input
// sequence number) and must be safe for concurrent use and pure — the
// same (seq, attempt) must yield the same Fault, or runs stop being
// reproducible. internal/chaos builds seeded injectors from randomized
// failure plans.
type FaultInjector func(seq, attempt int) Fault

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (e permanentError) Error() string { return e.err.Error() }
func (e permanentError) Unwrap() error { return e.err }

// Permanent wraps err to mark it non-retryable: the task gives up at
// once, without burning its retry budget — the run aborts, or under
// Skip the task quarantines. Use it for failures that cannot succeed on
// re-execution — malformed input, a poisoned record, a panic.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked
// with Permanent.
func IsPermanent(err error) bool {
	var pe permanentError
	return errors.As(err, &pe)
}

// QuarantinedTask records one task dropped under FailurePolicy.Skip.
type QuarantinedTask struct {
	// Seq is the task's input sequence number.
	Seq int
	// Attempts is how many times the task was tried before giving up.
	Attempts int
	// Err is the final attempt's error.
	Err error
}

// sleepCtx pauses for d or until ctx is done, whichever comes first,
// returning the context's error if it fired.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
