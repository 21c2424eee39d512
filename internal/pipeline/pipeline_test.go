package pipeline

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fusion"
	"repro/internal/mapreduce"
)

// checkNoLeakedGoroutines asserts the goroutine count returns to its
// pre-test level, allowing the runtime a moment to wind workers down.
func checkNoLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// endlessFeed emits the same chunk until the pipeline refuses it, so
// only cancellation can end a run over it.
func endlessFeed(chunk []byte) Feed {
	return func(emit func([]byte) error) error {
		for {
			if err := emit(chunk); err != nil {
				return nil
			}
		}
	}
}

// cancelOnObserve is an obs.Recorder that fires a cancel the first time
// a given metric is observed — the hook the mid-combine test uses to
// cancel at a provably precise pipeline stage.
type cancelOnObserve struct {
	metric string
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnObserve) Add(string, int64) {}
func (c *cancelOnObserve) Set(string, int64) {}
func (c *cancelOnObserve) Observe(name string, _ int64) {
	if name == c.metric {
		c.once.Do(c.cancel)
	}
}

// TestRunMidFeedCancel cancels from the fault injector as the first
// chunk's map attempt starts — the feed is endless, so the feeder
// goroutine is provably mid-emit — and asserts a prompt, clean return
// with no surviving goroutines. This pins Run's own contract,
// independent of any Source adapter.
func TestRunMidFeedCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env := &Env{Workers: 2, Injector: func(int, int) mapreduce.Fault {
		cancel()
		return mapreduce.Fault{}
	}}
	_, _, err := Run(ctx, env, endlessFeed([]byte(`{"a":1}`)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkNoLeakedGoroutines(t, before)
}

// TestRunMidCombineCancel cancels from inside a combine: the recorder
// fires the cancel the first time the engine times a combine step, so
// the run is past at least one merge when the context dies.
func TestRunMidCombineCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env := &Env{
		Workers: 2,
		Rec:     &cancelOnObserve{metric: "mapreduce_combine_ns", cancel: cancel},
	}
	_, _, err := Run(ctx, env, endlessFeed([]byte(`{"a":1}`)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkNoLeakedGoroutines(t, before)
}

// TestRunPreCancelled asserts an already-dead context never starts
// work and still joins the feeder.
func TestRunPreCancelled(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Run(ctx, &Env{Workers: 2}, endlessFeed([]byte(`{"a":1}`)))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkNoLeakedGoroutines(t, before)
}

// TestRunFeedError pins the producer-failure contract: a feed that
// fails surfaces as *FeedError wrapping the cause, distinguishable
// from a decode error, and the run leaves no goroutines behind.
func TestRunFeedError(t *testing.T) {
	before := runtime.NumGoroutine()
	cause := errors.New("disk on fire")
	feed := func(emit func([]byte) error) error {
		if err := emit([]byte(`{"a":1}`)); err != nil {
			return nil
		}
		return cause
	}
	_, _, err := Run(context.Background(), &Env{Workers: 2}, feed)
	var fe *FeedError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v (%T), want *FeedError", err, err)
	}
	if !errors.Is(err, cause) {
		t.Fatalf("errors.Is(err, cause) = false for %v", err)
	}
	checkNoLeakedGoroutines(t, before)

	// A decode failure is NOT a FeedError: the input arrived fine.
	_, _, err = Run(context.Background(), &Env{Workers: 1}, SliceFeed([][]byte{[]byte(`{"broken`)}))
	if err == nil {
		t.Fatal("invalid JSON accepted")
	}
	if errors.As(err, &fe) {
		t.Fatalf("decode error surfaced as FeedError: %v", err)
	}
}

// TestRunPooledBoundsChunksInFlight pins RunPooled's memory bound: with
// the map stage slowed by an injected delay, so the feed always runs
// ahead, the chunks emit has accepted but the release hook has not yet
// returned never number more than 2·Workers+1 — one per map attempt, one
// per queued slot and one in the engine's hand-off — and every one is
// released by the time the run returns.
func TestRunPooledBoundsChunksInFlight(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		// Counting after emit returns and before release can only
		// under-count, so a peak above the bound is a real one. RunPooled
		// joins the feed before returning, so peak needs no lock.
		var inFlight atomic.Int64
		var peak int64
		feed := func(emit func([]byte) error) error {
			for i := 0; i < 12*workers; i++ {
				if err := emit([]byte(`{"a":1}` + "\n")); err != nil {
					return nil
				}
				peak = max(peak, inFlight.Add(1))
			}
			return nil
		}
		slow := func(int, int) mapreduce.Fault { return mapreduce.Fault{Delay: 2 * time.Millisecond} }
		env := &Env{Workers: workers, Injector: slow}
		if _, _, err := RunPooled(context.Background(), env, feed, func([]byte) { inFlight.Add(-1) }); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if bound := int64(2*workers + 1); peak > bound {
			t.Errorf("workers=%d: %d chunks in flight, want at most %d", workers, peak, bound)
		}
		if n := inFlight.Load(); n != 0 {
			t.Errorf("workers=%d: %d chunks never released", workers, n)
		}
	}
}

// TestRunAndStreamAgree runs the same records through the chunked
// driver, with and without a cover, and the streaming driver, and
// compares the folds. The stream keeps no distinct-type bookkeeping, so
// it reports zero DistinctTypes.
func TestRunAndStreamAgree(t *testing.T) {
	data := bytes.Repeat([]byte(`{"a":1,"b":[1,2]}
{"a":"x"}
`), 50)
	for _, dedup := range []bool{false, true} {
		env := &Env{Workers: 2, Fusion: fusion.Options{}}
		streamEnv := &Env{Fusion: fusion.Options{}}
		if dedup {
			env.Cover = &Cover{}
		}
		acc, _, err := Run(context.Background(), env, SliceFeed([][]byte{data}))
		if err != nil {
			t.Fatal(err)
		}
		sacc, n, err := RunStream(context.Background(), streamEnv, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(data)) {
			t.Errorf("dedup=%v: stream consumed %d bytes, want %d", dedup, n, len(data))
		}
		chunked, streamed := Fold(acc), Fold(sacc)
		if chunked.Records != streamed.Records || chunked.Fused.String() != streamed.Fused.String() {
			t.Errorf("dedup=%v: chunked %+v vs streamed %+v", dedup, chunked, streamed)
		}
		if chunked.DistinctTypes != 2 || streamed.DistinctTypes != 0 {
			t.Errorf("dedup=%v: DistinctTypes chunked %d, streamed %d; want 2 and 0", dedup, chunked.DistinctTypes, streamed.DistinctTypes)
		}
	}
}

// TestRunStreamRecordError pins the 1-based record position in decode
// errors — the public API's "record %d" contract rides on it.
func TestRunStreamRecordError(t *testing.T) {
	r := strings.NewReader(`{"ok":1} {"broken`)
	_, _, err := RunStream(context.Background(), &Env{}, r)
	if err == nil || !strings.Contains(err.Error(), "record 2") {
		t.Fatalf("err = %v, want mention of record 2", err)
	}
}
