// Package mapreduce is a small, generic map-reduce engine that plays the
// role Spark plays in the paper: it distributes a Map transformation
// (per-partition type inference) over workers and folds the outputs with
// an associative Reduce (type fusion).
//
// The engine offers two reduction disciplines:
//
//   - unordered (the default): every worker folds the outputs of its own
//     tasks into a local accumulator as they complete, and the local
//     accumulators are folded at the end. Outputs meet in arrival order,
//     so the combiner must be associative AND commutative — exactly the
//     properties Theorems 5.4 and 5.5 establish for type fusion. This is
//     the "combiner" optimization of classic map-reduce.
//
//   - ordered: outputs are collected with their input sequence numbers
//     and folded left-to-right in input order. Only associativity is
//     required, and the result is bit-for-bit reproducible regardless of
//     scheduling. Used by tests to cross-check the unordered path.
package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config tunes a run.
type Config struct {
	// Workers is the number of concurrent map workers; zero means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Ordered selects the ordered reduction discipline documented in the
	// package comment.
	Ordered bool
	// Failure selects the failure-handling policy; the zero value
	// aborts on the first task failure. See FailurePolicy.
	Failure FailurePolicy
	// Injector, when non-nil, intercepts every task attempt for chaos
	// testing; see FaultInjector.
	Injector FaultInjector
	// Recorder, when non-nil, receives engine metrics under the
	// mapreduce_* names documented in docs/OBSERVABILITY.md: task
	// counts, per-task map and combine timings, queue wait, reduce and
	// wall times, and worker utilization. There is no queue: the queue
	// wait (mapreduce_queue_wait_ns) is a worker's wait for its next
	// item, the engine's feed lock plus the call to next, so with a
	// feed that reads its input it includes the read. A nil Recorder
	// costs one branch per task on the hot path (benchmarked at the
	// repository root against BenchmarkInferNDJSON).
	Recorder obs.Recorder
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// Stats reports where a run spent its effort.
type Stats struct {
	// Tasks is the number of input items mapped.
	Tasks int
	// MapTime is the total time spent inside mapFn summed over workers
	// (it exceeds Wall on multi-worker runs).
	MapTime time.Duration
	// ReduceTime is the time spent in the final fold of worker
	// accumulators (ordered mode: the whole fold).
	ReduceTime time.Duration
	// Wall is the end-to-end elapsed time of the run.
	Wall time.Duration
	// Retries counts re-executed task attempts (attempts beyond each
	// task's first).
	Retries int
	// Quarantined lists the tasks dropped under FailurePolicy.Skip, in
	// input order. Their outputs are missing from the reduction; the
	// caller decides whether that is acceptable.
	Quarantined []QuarantinedTask
}

// Run maps every item next yields and reduces the outputs with
// combine, starting from zero. What happens when a task fails — a mapFn
// error, a mapFn panic (converted to a Permanent error) or an injected
// fault — is governed by cfg.Failure: the task is re-executed with
// exponential backoff up to its retry budget, and a task that still
// fails aborts the run or, under Skip, is quarantined so the run can
// complete without it (see Stats.Quarantined). Context cancellation
// always aborts, regardless of policy.
//
// Workers pull their items: each calls next under a lock of the
// engine's, so next needs no synchronization, and items are numbered in
// the order next yields them. prev is the worker's last item (the zero
// I at first), handed back after its final attempt — success,
// quarantine or failure — so a feed can recycle it; mapFn's output must
// not alias its item. next reports the end with ok false and a failure
// with an error, and must report the end again to each worker that
// calls it after that. A next error stops new items; those handed out
// are still mapped, and the error is returned as is unless one of their
// tasks failed first. After an abort next is not called again, and the
// items still held fall to the garbage collector.
//
// Re-execution is safe because combine must be associative (and, in
// the default unordered mode, commutative): a retried task's output
// meets the fold in a different order but yields the same reduction.
// zero must be the identity of combine.
func Run[I, M any](ctx context.Context, next func(prev I) (I, bool, error), mapFn func(context.Context, I) (M, error), combine func(M, M) M, zero M, cfg Config) (M, Stats, error) {
	start := time.Now()
	nw := cfg.workers()
	rec := cfg.Recorder
	if rec != nil {
		rec.Set("mapreduce_workers", int64(nw))
	}

	type seqOut struct {
		seq int
		out M
	}

	// The per-pair combine timing wraps the combiner once, outside the
	// hot loop, so the nil-recorder path calls the original function
	// directly.
	combineFn := combine
	if rec != nil {
		combineFn = func(a, b M) M {
			t0 := time.Now()
			out := combine(a, b)
			rec.Observe("mapreduce_combine_ns", int64(time.Since(t0)))
			return out
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		// feedMu serializes the calls to next, so next needs no lock of
		// its own and items are numbered in the order it yields them;
		// mu guards the rest, so no bookkeeping waits on a read.
		feedMu      sync.Mutex
		nextSeq     int   // sequence number of the next item
		feedErr     error // next's first error
		mu          sync.Mutex
		firstErr    error
		mapTime     time.Duration
		tasks       int
		retries     int
		quarantined []QuarantinedTask
		ordered     []seqOut // ordered mode: all outputs
		locals      = make([]M, nw)
		started     = make([]bool, nw)
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var (
				item I // handed back to next when the worker pulls again
				seq  int
				ok   bool
				err  error
				t0   time.Time
			)
			for {
				if rec != nil {
					t0 = time.Now()
				}
				feedMu.Lock()
				select {
				case <-runCtx.Done():
					ok = false
				default:
					if item, ok, err = next(item); err != nil && feedErr == nil {
						feedErr = err
					}
					if ok = ok && feedErr == nil; ok {
						seq = nextSeq
						nextSeq++
					}
				}
				feedMu.Unlock()
				if !ok {
					return
				}
				if rec != nil {
					rec.Observe("mapreduce_queue_wait_ns", int64(time.Since(t0)))
				}
				out, res := runTaskAttempts(runCtx, mapFn, item, seq, cfg, rec)
				mu.Lock()
				mapTime += res.dur
				tasks++
				retries += res.retries
				mu.Unlock()
				if res.err != nil {
					if res.aborted || !cfg.Failure.Skip {
						fail(fmt.Errorf("mapreduce: task %d: %w", seq, res.err))
						return
					}
					// Skip: quarantine the task and keep going.
					mu.Lock()
					quarantined = append(quarantined, QuarantinedTask{Seq: seq, Attempts: res.attempts, Err: res.err})
					mu.Unlock()
					if rec != nil {
						rec.Add("mapreduce_skipped", 1)
					}
					continue
				}
				if cfg.Ordered {
					mu.Lock()
					ordered = append(ordered, seqOut{seq: seq, out: out})
					mu.Unlock()
				} else {
					if started[w] {
						locals[w] = combineFn(locals[w], out)
					} else {
						locals[w] = out
						started[w] = true
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if firstErr == nil && ctx.Err() != nil {
		firstErr = ctx.Err()
	}
	if firstErr == nil {
		firstErr = feedErr
	}
	// Workers quarantine in completion order; canonicalize to input
	// order so Stats is deterministic.
	sort.Slice(quarantined, func(i, j int) bool { return quarantined[i].Seq < quarantined[j].Seq })
	st := Stats{Tasks: tasks, MapTime: mapTime, Retries: retries, Quarantined: quarantined}
	if firstErr != nil {
		st.Wall = time.Since(start)
		record(rec, st, nw)
		return zero, st, firstErr
	}

	reduceStart := time.Now()
	acc := zero
	if cfg.Ordered {
		sort.Slice(ordered, func(i, j int) bool { return ordered[i].seq < ordered[j].seq })
		for _, o := range ordered {
			acc = combineFn(acc, o.out)
		}
	} else {
		for w := 0; w < nw; w++ {
			if started[w] {
				acc = combineFn(acc, locals[w])
			}
		}
	}
	st.ReduceTime = time.Since(reduceStart)
	st.Wall = time.Since(start)
	record(rec, st, nw)
	return acc, st, nil
}

// record publishes a finished run's totals. MapTime doubles as the
// workers' total busy time, so utilization (busy / wall x workers) is
// derived here rather than tracked separately.
func record(rec obs.Recorder, st Stats, workers int) {
	if rec == nil {
		return
	}
	rec.Add("mapreduce_tasks", int64(st.Tasks))
	rec.Add("mapreduce_map_ns", int64(st.MapTime))
	rec.Add("mapreduce_reduce_ns", int64(st.ReduceTime))
	rec.Add("mapreduce_wall_ns", int64(st.Wall))
	if st.Wall > 0 && workers > 0 {
		util := int64(st.MapTime) * 1000 / (int64(st.Wall) * int64(workers))
		rec.Set("mapreduce_utilization_permille", util)
	}
}

// taskResult summarizes every attempt of one task.
type taskResult struct {
	dur      time.Duration // time inside attempts, summed
	attempts int
	retries  int
	err      error // nil on success
	aborted  bool  // err came from run cancellation: never quarantine
}

// runTaskAttempts drives one task through the failure policy: attempt,
// and on a transient failure back off (deterministically jittered) and
// re-attempt until success, a Permanent error, cancellation, or an
// exhausted budget.
func runTaskAttempts[I, M any](ctx context.Context, mapFn func(context.Context, I) (M, error), item I, seq int, cfg Config, rec obs.Recorder) (M, taskResult) {
	var res taskResult
	var zero M
	budget := cfg.Failure.maxAttempts()
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			res.retries++
			if rec != nil {
				rec.Add("mapreduce_retries", 1)
			}
			if err := sleepCtx(ctx, backoff(seq, attempt)); err != nil {
				res.err, res.aborted = err, true
				return zero, res
			}
		}
		var fault Fault
		if cfg.Injector != nil {
			fault = cfg.Injector(seq, attempt)
			if rec != nil && (fault.Err != nil || fault.Delay > 0) {
				rec.Add("mapreduce_faults_injected", 1)
			}
		}
		out, dur, err := runAttempt(ctx, mapFn, item, fault)
		res.dur += dur
		res.attempts++
		if rec != nil {
			rec.Observe("mapreduce_task_ns", int64(dur))
		}
		if err == nil {
			return out, res
		}
		if ctx.Err() != nil {
			res.err, res.aborted = err, true
			return zero, res
		}
		if IsPermanent(err) || attempt+1 >= budget {
			if res.attempts > 1 {
				err = fmt.Errorf("%w (after %d attempts)", err, res.attempts)
			}
			res.err = err
			return zero, res
		}
	}
}

// runAttempt executes one attempt of a task: the injected fault (if
// any), then mapFn, with panic recovery. A panic converts to a
// Permanent error — a poisoned record panics on every re-execution, so
// retrying it only wastes the budget; under Skip it quarantines at once
// instead of crashing the process.
func runAttempt[I, M any](ctx context.Context, mapFn func(context.Context, I) (M, error), item I, fault Fault) (out M, dur time.Duration, err error) {
	start := time.Now()
	defer func() {
		dur = time.Since(start)
		if r := recover(); r != nil {
			err = Permanent(fmt.Errorf("map function panicked: %v", r))
		}
	}()
	if fault.Delay > 0 {
		if err = sleepCtx(ctx, fault.Delay); err != nil {
			return out, 0, err
		}
	}
	if fault.Err != nil {
		return out, 0, fault.Err
	}
	out, err = mapFn(ctx, item)
	return out, 0, err // dur is set by the deferred closure
}

// RunSlice is Run over an in-memory slice of items.
func RunSlice[I, M any](ctx context.Context, items []I, mapFn func(context.Context, I) (M, error), combine func(M, M) M, zero M, cfg Config) (M, Stats, error) {
	i := 0
	next := func(I) (item I, ok bool, _ error) {
		if i < len(items) {
			item, ok = items[i], true
			i++
		}
		return item, ok, nil
	}
	return Run(ctx, next, mapFn, combine, zero, cfg)
}
