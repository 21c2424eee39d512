package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// retry is a policy with a budget of n retries that aborts once the
// budget is spent.
func retry(n int) FailurePolicy { return FailurePolicy{Retries: n} }

// skip is retry with quarantine instead of aborting.
func skip(n int) FailurePolicy { return FailurePolicy{Retries: n, Skip: true} }

var errTransient = errors.New("transient test fault")

// faultFirstAttempts returns an injector that fails the first n
// attempts of every task whose seq satisfies pick.
func faultFirstAttempts(n int, pick func(seq int) bool) FaultInjector {
	return func(seq, attempt int) Fault {
		if pick(seq) && attempt < n {
			return Fault{Err: fmt.Errorf("%w: task %d attempt %d", errTransient, seq, attempt)}
		}
		return Fault{}
	}
}

func TestRetryRecoversFromTransientFaults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i + 1
	}
	reg := obs.NewRegistry()
	got, st, err := RunSlice(context.Background(), items,
		func(_ context.Context, n int) (int, error) { return n, nil },
		func(a, b int) int { return a + b }, 0,
		Config{Workers: 4, Failure: retry(2), Injector: faultFirstAttempts(2, func(seq int) bool { return seq%5 == 0 }), Recorder: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got != 100*101/2 {
		t.Errorf("sum = %d, want %d", got, 100*101/2)
	}
	// Tasks 0, 5, ..., 95 each needed exactly 2 retries.
	if wantRetries := 20 * 2; st.Retries != wantRetries {
		t.Errorf("Retries = %d, want %d", st.Retries, wantRetries)
	}
	if st.Tasks != 100 {
		t.Errorf("Tasks = %d, want 100", st.Tasks)
	}
	if len(st.Quarantined) != 0 {
		t.Errorf("Quarantined = %v, want none", st.Quarantined)
	}
	m := reg.Snapshot()
	if m.Counters["mapreduce_retries"] != int64(st.Retries) {
		t.Errorf("mapreduce_retries = %d, want %d", m.Counters["mapreduce_retries"], st.Retries)
	}
	if m.Counters["mapreduce_tasks"] != 100 {
		t.Errorf("mapreduce_tasks = %d, want 100", m.Counters["mapreduce_tasks"])
	}
}

func TestRetryBudgetExhaustedAborts(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	_, _, err := RunSlice(context.Background(), items,
		func(_ context.Context, n int) (int, error) { return n, nil },
		func(a, b int) int { return a + b }, 0,
		Config{Workers: 2, Failure: retry(2), Injector: faultFirstAttempts(99, func(seq int) bool { return seq == 3 })})
	if !errors.Is(err, errTransient) {
		t.Fatalf("err = %v, want wrapped errTransient", err)
	}
	if !strings.Contains(err.Error(), "task 3") || !strings.Contains(err.Error(), "after 3 attempts") {
		t.Errorf("error %q should identify the task and the attempt count", err)
	}
}

func TestPermanentErrorIsNotRetried(t *testing.T) {
	var attempts atomic.Int64
	boom := errors.New("poisoned record")
	_, st, err := RunSlice(context.Background(), []int{1, 2, 3},
		func(_ context.Context, n int) (int, error) {
			if n == 2 {
				attempts.Add(1)
				return 0, Permanent(boom)
			}
			return n, nil
		},
		func(a, b int) int { return a + b }, 0,
		Config{Workers: 1, Failure: retry(5)})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("permanent error was attempted %d times, want 1", got)
	}
	if st.Retries != 0 {
		t.Errorf("Retries = %d, want 0", st.Retries)
	}
}

func TestSkipQuarantinesPoisonedTasks(t *testing.T) {
	items := make([]int, 50)
	for i := range items {
		items[i] = i
	}
	reg := obs.NewRegistry()
	poison := func(seq int) bool { return seq%10 == 0 } // 0, 10, 20, 30, 40
	got, st, err := RunSlice(context.Background(), items,
		func(_ context.Context, n int) (int, error) { return n, nil },
		func(a, b int) int { return a + b }, 0,
		Config{Workers: 4, Failure: skip(1), Injector: faultFirstAttempts(99, poison), Recorder: reg})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, n := range items {
		if !poison(n) {
			want += n
		}
	}
	if got != want {
		t.Errorf("sum = %d, want %d (poisoned tasks excluded)", got, want)
	}
	if len(st.Quarantined) != 5 {
		t.Fatalf("Quarantined = %d entries, want 5", len(st.Quarantined))
	}
	for i, q := range st.Quarantined {
		if q.Seq != i*10 {
			t.Errorf("Quarantined[%d].Seq = %d, want %d (sorted by input order)", i, q.Seq, i*10)
		}
		if q.Attempts != 2 {
			t.Errorf("Quarantined[%d].Attempts = %d, want 2", i, q.Attempts)
		}
		if !errors.Is(q.Err, errTransient) {
			t.Errorf("Quarantined[%d].Err = %v, want wrapped errTransient", i, q.Err)
		}
	}
	m := reg.Snapshot()
	if m.Counters["mapreduce_skipped"] != 5 {
		t.Errorf("mapreduce_skipped = %d, want 5", m.Counters["mapreduce_skipped"])
	}
}

// TestPanicQuarantinedUnderSkip is the regression test for converting
// map-function panics into task errors: one poisoned record must be
// quarantined under the Skip policy instead of crashing the process,
// and a panic must not burn the retry budget (it is Permanent).
func TestPanicQuarantinedUnderSkip(t *testing.T) {
	var attempts atomic.Int64
	items := make([]int, 20)
	for i := range items {
		items[i] = i
	}
	got, st, err := RunSlice(context.Background(), items,
		func(_ context.Context, n int) (int, error) {
			if n == 7 {
				attempts.Add(1)
				panic("poisoned record")
			}
			return n, nil
		},
		func(a, b int) int { return a + b }, 0,
		Config{Workers: 3, Failure: skip(4)})
	if err != nil {
		t.Fatalf("run should survive the panic, got %v", err)
	}
	want := 19 * 20 / 2 // sum 0..19
	want -= 7
	if got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if len(st.Quarantined) != 1 || st.Quarantined[0].Seq != 7 {
		t.Fatalf("Quarantined = %+v, want exactly task 7", st.Quarantined)
	}
	if !strings.Contains(st.Quarantined[0].Err.Error(), "panicked") {
		t.Errorf("quarantine error %q should mention the panic", st.Quarantined[0].Err)
	}
	if !IsPermanent(st.Quarantined[0].Err) {
		t.Error("a panic should be marked Permanent")
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("panicking task was attempted %d times, want 1 (no retry of a permanent failure)", got)
	}
}

func TestSkipDoesNotQuarantineCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 1000)
	var once atomic.Bool
	_, st, err := RunSlice(ctx, items,
		func(_ context.Context, n int) (int, error) {
			if once.CompareAndSwap(false, true) {
				cancel()
				return 0, ctx.Err()
			}
			return n, nil
		},
		func(a, b int) int { return a + b }, 0,
		Config{Workers: 2, Failure: skip(3)})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	for _, q := range st.Quarantined {
		if errors.Is(q.Err, context.Canceled) {
			t.Errorf("cancellation was quarantined: %+v", q)
		}
	}
}

func TestBackoffIsDeterministicAndBounded(t *testing.T) {
	for seq := 0; seq < 50; seq++ {
		for attempt := 1; attempt <= 8; attempt++ {
			d1 := backoff(seq, attempt)
			d2 := backoff(seq, attempt)
			if d1 != d2 {
				t.Fatalf("backoff(%d, %d) is not deterministic: %v vs %v", seq, attempt, d1, d2)
			}
			// Exponential cap: raw delay is min(1ms<<(attempt-1), 50ms),
			// jittered into [d/2, d].
			raw := time.Millisecond << (attempt - 1)
			if raw > 50*time.Millisecond {
				raw = 50 * time.Millisecond
			}
			if d1 < raw/2 || d1 > raw {
				t.Fatalf("backoff(%d, %d) = %v, outside [%v, %v]", seq, attempt, d1, raw/2, raw)
			}
		}
	}
}

// TestBackoffSchedule pins the retry schedule Options.Retries runs:
// the pauses of tasks 0-3 before retry attempts 1-8, in nanoseconds.
// A change to the base, the cap or the jitter hash shows up here.
func TestBackoffSchedule(t *testing.T) {
	want := [4][8]time.Duration{
		{868846, 1527869, 2949749, 4339149, 8075077, 25218578, 48801958, 39514823},
		{754488, 1038344, 2352527, 7481488, 11268715, 23311294, 35725060, 28102867},
		{879749, 1790671, 2675227, 6995544, 14809689, 26500065, 38528462, 33849475},
		{778951, 1567969, 2182947, 6984440, 11056475, 31686885, 28565016, 48024787},
	}
	for seq, row := range want {
		for i, d := range row {
			if got := backoff(seq, i+1); got != d {
				t.Errorf("backoff(%d, %d) = %d, want %d", seq, i+1, got, d)
			}
		}
	}
}

func TestPermanentNilAndUnwrap(t *testing.T) {
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) should be nil")
	}
	base := errors.New("root cause")
	wrapped := Permanent(fmt.Errorf("context: %w", base))
	if !IsPermanent(wrapped) {
		t.Error("IsPermanent(Permanent(err)) = false")
	}
	if !errors.Is(wrapped, base) {
		t.Error("Permanent should preserve the error chain")
	}
	if IsPermanent(base) {
		t.Error("IsPermanent(plain error) = true")
	}
	rewrapped := fmt.Errorf("outer: %w", wrapped)
	if !IsPermanent(rewrapped) {
		t.Error("IsPermanent should see through wrapping")
	}
}
