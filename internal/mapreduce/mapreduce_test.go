package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/value"
)

func TestRunSliceSum(t *testing.T) {
	items := make([]int, 1000)
	for i := range items {
		items[i] = i + 1
	}
	for _, cfg := range []Config{{}, {Workers: 1}, {Workers: 7}, {Ordered: true}, {Workers: 3, Ordered: true}} {
		got, st, err := RunSlice(context.Background(), items,
			func(_ context.Context, n int) (int, error) { return n, nil },
			func(a, b int) int { return a + b }, 0, cfg)
		if err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if got != 1000*1001/2 {
			t.Errorf("cfg %+v: sum = %d", cfg, got)
		}
		if st.Tasks != 1000 {
			t.Errorf("cfg %+v: tasks = %d", cfg, st.Tasks)
		}
	}
}

func TestRunEmptyInput(t *testing.T) {
	got, st, err := RunSlice(context.Background(), nil,
		func(_ context.Context, n int) (int, error) { return n, nil },
		func(a, b int) int { return a + b }, 42, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Errorf("empty input should return zero value, got %d", got)
	}
	if st.Tasks != 0 {
		t.Errorf("tasks = %d", st.Tasks)
	}
}

func TestOrderedFoldIsLeftToRight(t *testing.T) {
	// String concatenation is associative but NOT commutative; ordered
	// mode must still produce the input-order fold.
	items := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	got, _, err := RunSlice(context.Background(), items,
		func(_ context.Context, s string) (string, error) {
			time.Sleep(time.Duration(len(s)) * time.Microsecond)
			return s, nil
		},
		func(a, b string) string { return a + b }, "", Config{Workers: 4, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != "abcdefgh" {
		t.Errorf("ordered fold = %q", got)
	}
}

func TestUnorderedMatchesOrderedForFusion(t *testing.T) {
	// The paper's whole point: fusion is commutative and associative, so
	// the unordered combiner discipline gives the same schema.
	var vals []value.Value
	for i := 0; i < 500; i++ {
		fields := []value.Field{{Key: "id", Value: value.Num(float64(i))}}
		if i%3 == 0 {
			fields = append(fields, value.Field{Key: "tag", Value: value.Str("x")})
		}
		if i%7 == 0 {
			fields = append(fields, value.Field{Key: "arr", Value: value.Arr(value.Num(1), value.Str("s"))})
		}
		vals = append(vals, value.MustRecord(fields...))
	}
	mapFn := func(_ context.Context, v value.Value) (types.Type, error) {
		return fusion.Simplify(infer.Infer(v)), nil
	}
	zero := types.Type(types.Empty)
	ordered, _, err := RunSlice(context.Background(), vals, mapFn, fusion.Fuse, zero, Config{Workers: 1, Ordered: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 8} {
		unordered, _, err := RunSlice(context.Background(), vals, mapFn, fusion.Fuse, zero, Config{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if !types.Equal(ordered, unordered) {
			t.Errorf("workers=%d: %s != %s", w, unordered, ordered)
		}
	}
}

func TestErrorStopsRun(t *testing.T) {
	items := make([]int, 10000)
	for i := range items {
		items[i] = i
	}
	boom := errors.New("boom")
	_, _, err := RunSlice(context.Background(), items,
		func(_ context.Context, n int) (int, error) {
			if n == 17 {
				return 0, boom
			}
			return n, nil
		},
		func(a, b int) int { return a + b }, 0, Config{Workers: 4})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "task 17") {
		t.Errorf("error %q does not identify the failing task", err)
	}
}

func TestPanicBecomesError(t *testing.T) {
	items := []int{1, 2, 3}
	_, _, err := RunSlice(context.Background(), items,
		func(_ context.Context, n int) (int, error) {
			if n == 2 {
				panic("kaboom")
			}
			return n, nil
		},
		func(a, b int) int { return a + b }, 0, Config{Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic converted to error", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	items := make([]int, 100000)
	started := make(chan struct{}, 1)
	_, _, err := RunSlice(ctx, items,
		func(c context.Context, n int) (int, error) {
			select {
			case started <- struct{}{}:
				cancel()
			default:
			}
			return n, nil
		},
		func(a, b int) int { return a + b }, 0, Config{Workers: 2})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestStatsPopulated(t *testing.T) {
	items := make([]int, 64)
	_, st, err := RunSlice(context.Background(), items,
		func(_ context.Context, n int) (int, error) {
			time.Sleep(100 * time.Microsecond)
			return 1, nil
		},
		func(a, b int) int { return a + b }, 0, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tasks != 64 {
		t.Errorf("Tasks = %d", st.Tasks)
	}
	if st.MapTime < 64*100*time.Microsecond/2 {
		t.Errorf("MapTime = %v, implausibly small", st.MapTime)
	}
	if st.Wall <= 0 {
		t.Errorf("Wall = %v", st.Wall)
	}
}

func TestRunFromChannelStreams(t *testing.T) {
	src := make(chan int)
	go func() {
		defer close(src)
		for i := 1; i <= 100; i++ {
			src <- i
		}
	}()
	next := func(int) (int, bool, error) {
		n, ok := <-src
		return n, ok, nil
	}
	got, _, err := Run(context.Background(), next,
		func(_ context.Context, n int) (int, error) { return n * n, nil },
		func(a, b int) int { return a + b }, 0, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 1; i <= 100; i++ {
		want += i * i
	}
	if got != want {
		t.Errorf("sum of squares = %d, want %d", got, want)
	}
}

// TestRunHandsBackEveryItem: every item next yields comes back through
// next exactly once, after its final attempt, so a worker never holds
// more than one — quarantined and retried items included.
func TestRunHandsBackEveryItem(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		// next runs under the engine's lock, so its state needs none.
		yielded, held, peak := 0, map[int]bool{}, 0
		next := func(prev int) (int, bool, error) {
			if prev != 0 {
				if !held[prev] {
					t.Errorf("workers=%d: item %d handed back twice or never yielded", workers, prev)
				}
				delete(held, prev)
			}
			if yielded == 200 {
				return 0, false, nil
			}
			yielded++
			held[yielded] = true
			peak = max(peak, len(held))
			return yielded, true, nil
		}
		cfg := Config{Workers: workers, Failure: FailurePolicy{Retries: 1, Skip: true},
			Injector: func(seq, attempt int) Fault {
				if seq%7 == 0 && attempt == 0 {
					return Fault{Err: errors.New("transient")}
				}
				return Fault{}
			}}
		_, st, err := Run(context.Background(), next, func(_ context.Context, n int) (int, error) {
			if n%10 == 0 {
				return 0, Permanent(errors.New("poisoned"))
			}
			return n, nil
		}, func(a, b int) int { return a + b }, 0, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(held) != 0 || peak > workers {
			t.Errorf("workers=%d: %d items never handed back, %d held at once; want 0 and at most %d", workers, len(held), peak, workers)
		}
		if len(st.Quarantined) != 20 || st.Tasks != 200 {
			t.Errorf("workers=%d: %d tasks, %d quarantined; want 200 and 20", workers, st.Tasks, len(st.Quarantined))
		}
	}
}

// TestRunNextError: a next error stops the handing out of items, the
// items already handed out are still mapped, and the run returns the
// error as is — unless one of those tasks fails, whose error wins.
func TestRunNextError(t *testing.T) {
	cause := errors.New("disk on fire")
	feed := func() func(int) (int, bool, error) {
		n := 0
		return func(int) (int, bool, error) {
			if n == 3 {
				return 0, false, cause
			}
			n++
			return n, true, nil
		}
	}
	sum := func(a, b int) int { return a + b }
	var mapped atomic.Int64
	_, st, err := Run(context.Background(), feed(), func(_ context.Context, n int) (int, error) {
		mapped.Add(1)
		return n, nil
	}, sum, 0, Config{Workers: 2})
	if err != cause {
		t.Errorf("err = %v, want the next error as is", err)
	}
	if st.Tasks != 3 || mapped.Load() != 3 {
		t.Errorf("%d tasks, %d mapped; want the 3 items next yielded", st.Tasks, mapped.Load())
	}
	boom := errors.New("boom")
	_, _, err = Run(context.Background(), feed(), func(_ context.Context, n int) (int, error) {
		if n == 2 {
			return 0, boom
		}
		return n, nil
	}, sum, 0, Config{Workers: 1})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want the task error", err)
	}
}

func TestManyWorkersFewItems(t *testing.T) {
	got, _, err := RunSlice(context.Background(), []int{5},
		func(_ context.Context, n int) (int, error) { return n, nil },
		func(a, b int) int { return a + b }, 0, Config{Workers: 64})
	if err != nil || got != 5 {
		t.Fatalf("got %d, err %v", got, err)
	}
}

func TestDeterministicAcrossRepeats(t *testing.T) {
	var vals []value.Value
	for i := 0; i < 200; i++ {
		vals = append(vals, value.Obj(
			"k"+fmt.Sprint(i%10), value.Num(float64(i)),
			"common", value.Str("c"),
		))
	}
	mapFn := func(_ context.Context, v value.Value) (types.Type, error) {
		return fusion.Simplify(infer.Infer(v)), nil
	}
	zero := types.Type(types.Empty)
	first, _, err := RunSlice(context.Background(), vals, mapFn, fusion.Fuse, zero, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		again, _, err := RunSlice(context.Background(), vals, mapFn, fusion.Fuse, zero, Config{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		if !types.Equal(first, again) {
			t.Fatalf("run %d differs: %s vs %s", i, again, first)
		}
	}
}

func TestRecorderObservesRun(t *testing.T) {
	reg := obs.NewRegistry()
	items := []int{1, 2, 3, 4, 5, 6, 7, 8}
	mapFn := func(_ context.Context, n int) (int, error) { return n, nil }
	sum := func(a, b int) int { return a + b }
	got, _, err := RunSlice(context.Background(), items, mapFn, sum, 0, Config{Workers: 3, Recorder: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got != 36 {
		t.Fatalf("sum = %d, want 36", got)
	}
	m := reg.Snapshot()
	if m.Counters["mapreduce_tasks"] != int64(len(items)) {
		t.Errorf("mapreduce_tasks = %d, want %d", m.Counters["mapreduce_tasks"], len(items))
	}
	if m.Gauges["mapreduce_workers"] != 3 {
		t.Errorf("mapreduce_workers = %d, want 3", m.Gauges["mapreduce_workers"])
	}
	if h := m.Histograms["mapreduce_task_ns"]; h.Count != int64(len(items)) {
		t.Errorf("mapreduce_task_ns count = %d, want %d", h.Count, len(items))
	}
	if h := m.Histograms["mapreduce_queue_wait_ns"]; h.Count != int64(len(items)) {
		t.Errorf("mapreduce_queue_wait_ns count = %d, want %d", h.Count, len(items))
	}
	if _, ok := m.Counters["mapreduce_wall_ns"]; !ok {
		t.Error("mapreduce_wall_ns missing")
	}
	// 8 tasks over 3 workers: at least one in-worker combine plus the
	// final fold of <=3 local accumulators must have been timed.
	if h := m.Histograms["mapreduce_combine_ns"]; h.Count < 3 {
		t.Errorf("mapreduce_combine_ns count = %d, want >= 3", h.Count)
	}
}

func TestRecorderResultUnchanged(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	mapFn := func(_ context.Context, n int) (int, error) { return n * n, nil }
	sum := func(a, b int) int { return a + b }
	plain, _, err := RunSlice(context.Background(), items, mapFn, sum, 0, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	observed, _, err := RunSlice(context.Background(), items, mapFn, sum, 0, Config{Workers: 4, Recorder: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if plain != observed {
		t.Fatalf("recorder changed the result: %d vs %d", observed, plain)
	}
}
