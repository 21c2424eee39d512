package pipeline

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
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

// endlessFeed yields the same chunk for as long as it is asked, so only
// cancellation can end a run over it.
func endlessFeed(chunk []byte) Feed {
	return func([]byte) ([]byte, bool, error) { return chunk, true, nil }
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
// chunk's map attempt starts — the feed is endless, so only the
// cancellation can stop the workers pulling from it — and asserts a
// prompt, clean return with no surviving goroutines. This pins Run's
// own contract, independent of any Source adapter.
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
// work and leaves no goroutine behind.
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
	fed := false
	feed := func([]byte) ([]byte, bool, error) {
		if fed {
			return nil, false, cause
		}
		fed = true
		return []byte(`{"a":1}`), true, nil
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

// TestRunPooledBoundsChunksInFlight pins Run's memory bound: with the
// map stage slowed by an injected delay, so every worker is busy when
// another asks for a chunk, the chunks the feed has yielded but not yet
// taken back never number more than Workers — each worker hands its
// chunk back as it takes the next — and every one is back by the time
// the run returns.
func TestRunPooledBoundsChunksInFlight(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		// The engine calls the feed under its lock, so the counts need
		// none.
		yielded, inFlight, peak := 0, 0, 0
		feed := func(prev []byte) ([]byte, bool, error) {
			if prev != nil {
				inFlight--
			}
			if yielded == 12*workers {
				return nil, false, nil
			}
			yielded++
			inFlight++
			peak = max(peak, inFlight)
			return []byte(`{"a":1}` + "\n"), true, nil
		}
		slow := func(int, int) mapreduce.Fault { return mapreduce.Fault{Delay: 2 * time.Millisecond} }
		env := &Env{Workers: workers, Injector: slow}
		if _, _, err := Run(context.Background(), env, feed); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if peak > workers {
			t.Errorf("workers=%d: %d chunks in flight, want at most %d", workers, peak, workers)
		}
		if inFlight != 0 {
			t.Errorf("workers=%d: %d chunks never handed back", workers, inFlight)
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

// TestRunStreamRecordError pins the input offset in decode errors: an
// error inside the second record names where in the stream it lies, as
// every chunked feed's errors do.
func TestRunStreamRecordError(t *testing.T) {
	r := strings.NewReader(`{"ok":1} {"broken`)
	_, _, err := RunStream(context.Background(), &Env{}, r)
	if err == nil || !strings.Contains(err.Error(), "syntax error at offset 10: unterminated string") {
		t.Fatalf("err = %v, want an unterminated string at offset 10", err)
	}
}
