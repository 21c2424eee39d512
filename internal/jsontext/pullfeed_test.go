package jsontext_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/jsontext"
	"repro/internal/mapreduce"
	"repro/internal/pipeline"
)

// TestChunkedRunHoldsOneBufferPerWorker drives a multi-chunk body
// through the chunked pipeline the way FromChunkedReader does — a
// LineCutter's Next as the feed of pipeline.Run — with the map stage
// slowed so every worker is busy whenever another pulls, and counts the
// pool's buffers through the ledger. A run holds one chunk buffer per
// worker, plus, while a chunk is being cut, the smaller buffer it grows
// out of; when it returns, every buffer is back in the pool. The ledger
// takes no lock: the engine calls Next under its own, so the race
// detector also checks that all pool traffic is serialized.
func TestChunkedRunHoldsOneBufferPerWorker(t *testing.T) {
	line := []byte(`{"repo": "octocat/hello-world", "stars": 42, "fork": false}` + "\n")
	body := bytes.Repeat(line, (12<<20/4)/len(line)) // 12 default chunks
	slow := func(int, int) mapreduce.Fault { return mapreduce.Fault{Delay: 2 * time.Millisecond} }
	for _, workers := range []int{1, 2, 4} {
		pool, l := jsontext.NewLedger(t)
		env := &pipeline.Env{Workers: workers, Injector: slow}
		cut := jsontext.NewLineCutter(bytes.NewReader(body), 0, pool)
		acc, st, err := pipeline.Run(context.Background(), env, cut.Next)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res := pipeline.Fold(acc); res.Records != int64(len(body)/len(line)) || st.Tasks != 12 {
			t.Errorf("workers=%d: %d records in %d chunks, want %d in 12", workers, res.Records, st.Tasks, len(body)/len(line))
		}
		if bound := workers + 1; l.Peak() > bound {
			t.Errorf("workers=%d: %d buffers out of the pool at once, want at most %d", workers, l.Peak(), bound)
		}
		if n := l.Live(); n != 0 {
			t.Errorf("workers=%d: %d buffers never returned to the pool", workers, n)
		}
	}
}
