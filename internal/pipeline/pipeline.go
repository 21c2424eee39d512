// Package pipeline is the one inference engine behind every entry
// point of the repository: the public Source kinds (bytes, reader,
// file, files), the experiments harness and the CLI all run the same
// composable stages —
//
//	split → decode+infer map → combine (monoid) → fold
//
// over an Env that carries the run's fusion policy, worker count,
// failure policy, recorder and cover. A future backend — sharded,
// serving, remote — is a new feed into the same Accumulator, not a
// second copy of the pipeline.
//
// Two drivers run one map stage, mapRecords, and fill the one
// Accumulator implementation; they differ only in their feed. Run
// distributes line-aligned chunks over the map-reduce engine (parallel,
// fault-tolerant), whose workers pull each chunk from the Feed
// themselves and hand the last one back as they do, so a run holds one
// chunk per worker; RunStream maps a whole stream as one partition with
// constant memory (sequential). In both, a record the schema fused so
// far already covers is matched on its tokens and tallied, never typed
// (see Cover and mapRecords), unless the decoder declines to absorb
// (infer.Decoder.Absorbs: tagged unions and enrichment); every other
// record is typed, simplified and fused as soon as it is decoded. Both
// leave no goroutines behind on error or cancellation, which
// pipeline_test.go pins with mid-feed and mid-combine cancel tests.
//
// The stages time themselves through Env.Rec: each map task and each
// stream adds its decode+infer and its fusion busy time to the
// infer_decode_ns and infer_fuse_ns counters, and the map-reduce engine
// observes every combine into mapreduce_combine_ns. With the caller's
// final Fold they attribute a one-worker run's wall time, less what no
// stage owns (splitting, feeding, scheduling); the experiments harness
// reads the paper's Table 6 split from them.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/types"
)

// Env bundles the cross-cutting state of one inference run. Build it
// once per run and pass it to Run or RunStream; every field is
// read-only to the stages, which keep mutable state in their
// Accumulators.
type Env struct {
	// Fusion is the run's fusion policy.
	Fusion fusion.Options
	// Workers bounds the map-phase parallelism of Run; values <= 0 mean
	// one worker per CPU (resolved by the map-reduce engine).
	Workers int
	// ChunkBytes is the chunk size of bounded-memory file feeds; zero
	// means the partitioner default (256 KiB).
	ChunkBytes int
	// MaxDepth bounds value nesting in the decoders of both drivers;
	// zero means the parser default.
	MaxDepth int
	// Failure and Injector configure the map-reduce failure handling.
	Failure  mapreduce.FailurePolicy
	Injector mapreduce.FaultInjector
	// Rec receives pipeline metrics, including each stage's busy time
	// (docs/OBSERVABILITY.md); nil records nothing and reads no clock.
	Rec obs.Recorder
	// Cover, when non-nil, lets Run's chunks absorb the records it or
	// the chunk's own fold already covers (see Cover), whenever the
	// decoder absorbs at all (infer.Decoder.Absorbs); Options.env gives
	// every run a fresh one. Nil, or a run whose decoder declines,
	// means every chunk types every record and the cover is never
	// fused into; nil is the fold the experiments harness measures.
	// RunStream ignores it: its own fold is its cover.
	Cover *Cover
	// Enrich, when non-nil, computes the configured enrichment monoids
	// (internal/enrich) alongside structural inference in the same
	// pass: each map task observes its chunk into a fresh lattice
	// carried on the chunk's Accumulator, lattices merge with the
	// accumulators, and the folded Result carries the combined lattice.
	// Purely additive — the structural schema and statistics are
	// byte-identical with or without it.
	Enrich *enrich.Set
}

// A Cover is the schema one run's chunks absorb members against: the
// fusion of the chunks mapped so far. Only a map attempt that returned
// without error adds its chunk, and the engine combines every such
// result into the run's, so the cover is always the fusion of a subset
// of the records the run folds. A record that is a member of it would
// leave the run's fused type as it is (docs/PERFORMANCE.md, "Absorbed
// members"), under retries and quarantine alike. The zero value is the
// empty cover; one Cover serves every chunk, worker and file of a run.
type Cover struct {
	mu sync.Mutex
	t  types.Type // nil until the first chunk is added
}

// get returns the cover as it stands, ε when nothing was added.
func (c *Cover) get() types.Type {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.t == nil {
		return types.Empty
	}
	return c.t
}

// add fuses the fused type of one mapped chunk into the cover.
func (c *Cover) add(fz fusion.Options, t types.Type) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.t == nil {
		c.t = t
	} else {
		c.t = fz.Fuse(c.t, t)
	}
}

// A Feed yields the line-aligned chunks of one input, in order, one per
// call, with the shape of mapreduce.Run's next: prev is a chunk it
// yielded before (nil on a worker's first call), handed back once its
// final map attempt is over, so a pooled feed (jsontext.LineCutter's
// Next) can recycle the buffer. ok false marks the end of the input,
// and the feed must report the end again if called once more. A
// non-nil error marks the *producer* as failed (an I/O error reading
// the input) and surfaces as a FeedError, distinguishable from decode
// errors. The engine calls a Feed under its lock, so it needs no
// synchronization of its own, and stops calling it once the run ends.
type Feed func(prev []byte) (chunk []byte, ok bool, err error)

// SliceFeed feeds an in-memory slice of chunks.
func SliceFeed(chunks [][]byte) Feed {
	return func([]byte) (chunk []byte, ok bool, _ error) {
		if len(chunks) > 0 {
			chunk, chunks, ok = chunks[0], chunks[1:], true
		}
		return chunk, ok, nil
	}
}

// A FeedError marks a failure of the input producer (the feed reading
// chunks) as opposed to the pipeline decoding them, so callers can
// word — and callers' callers programmatically distinguish — the two.
type FeedError struct{ Err error }

func (e *FeedError) Error() string { return e.Err.Error() }
func (e *FeedError) Unwrap() error { return e.Err }

// Run distributes the feed's chunks over the map-reduce engine: each
// chunk is typed and locally folded into an Accumulator (the
// combiner), and accumulators merge associatively + commutatively into
// one. Workers pull the chunks from the feed themselves, each handing
// back the chunk it finished as it takes the next, so a run holds at
// most one chunk per worker and no goroutine outlives the call. The map
// stage never retains chunk bytes past its return (decoded types copy
// every string they keep), which is what makes recycling them sound.
// The returned Accumulator is nil when the feed produced nothing (Fold
// handles it); callers that span several inputs under one Env
// (FromFiles) Combine the returned accumulators before folding.
func Run(ctx context.Context, env *Env, feed Feed) (Accumulator, mapreduce.Stats, error) {
	var base int64
	next := func(prev chunk) (chunk, bool, error) {
		data, ok, err := feed(prev.data)
		if err != nil {
			return chunk{}, false, &FeedError{Err: err}
		}
		c := chunk{data: data, base: base}
		base += int64(len(data))
		return c, ok, nil
	}
	return mapreduce.Run(ctx, next, env.mapChunk, Combine, nil,
		mapreduce.Config{Workers: env.Workers, Recorder: env.Rec, Failure: env.Failure, Injector: env.Injector})
}

// A chunk is one line-aligned piece of a feed and its offset in the
// input: the feed's chunks are contiguous, so the offset is the length
// of the chunks emitted before it.
type chunk struct {
	data []byte
	base int64
}

// mapChunk runs the map stage over one line-aligned chunk (see
// mapRecords) until ctx, the map task's, is done. A decode error is
// permanent: the chunk's bytes fail the same way on every attempt, so
// the map-reduce engine gives the chunk up at once, under Skip
// quarantining it, instead of burning its retry budget. A syntax error
// reports its offset in the input, not in the chunk.
func (e *Env) mapChunk(ctx context.Context, c chunk) (Accumulator, error) {
	dec := infer.NewBytesDecoder(c.data, jsontext.Options{MaxDepth: e.MaxDepth})
	defer dec.Release()
	acc, _, err := e.mapRecords(ctx, dec, false)
	if err != nil {
		// The decoder's error is its own, fresh per call.
		if se := (*jsontext.SyntaxError)(nil); errors.As(err, &se) {
			se.Offset += c.base
		}
		return nil, mapreduce.Permanent(err)
	}
	return acc, nil
}

// RunStream runs the map stage over a stream of JSON values as one
// partition: the sequential driver. Its records go through the same
// loop as a chunk's (see mapRecords), with constant memory: it keeps
// no set of distinct types, so memory stays flat even when every record
// has a type of its own, and DistinctTypes stays zero. Returns the
// accumulator and the number of input bytes consumed. Cancellation
// takes effect between records; an error names the 1-based record it
// stopped at.
func RunStream(ctx context.Context, env *Env, r io.Reader) (Accumulator, int64, error) {
	dec := infer.NewDecoder(r, jsontext.Options{MaxDepth: env.MaxDepth})
	defer dec.Release()
	acc, records, err := env.mapRecords(ctx, dec, true)
	if err != nil {
		return nil, 0, fmt.Errorf("record %d: %w", records+1, err)
	}
	return acc, dec.Offset(), nil
}

// mapRecords is the decode+infer map stage, the one per-record loop
// behind both drivers: it types the records dec reads into a fresh
// chunkAcc and returns it with the number of records read. Each record
// is first offered to absorb; a member of the cover or of the fold so
// far is tallied and never typed, simplified or fused. Every other
// record is decoded, tallied, simplified and fused through one online
// balanced-tree fold (fusion.TreeFold): the partition never holds its
// records' types, the fold keeps O(log records) partial types, and its
// balanced shape avoids the left fold that would rebuild every growing
// intermediate record on high-entropy data.
//
// Whether a record may be absorbed is the decoder's call
// (infer.Decoder.Absorbs). A chunk absorbs only under a run cover
// (Env.Cover): it matches a record against the cover as the chunk found
// it, then against its fold's partials, and when done adds its fused
// type to the cover. The stream (stream true) matches against its
// fold's partials alone, as a chunk does under an empty cover. A chunk
// tallies each record by the size and hash of its type, so
// DistinctTypes is exact; the stream tallies sizes only.
//
// With Env.Rec set, a typed record's fusion is clocked one record at a
// time, so the infer_fuse_ns it records excludes decoding, and an
// absorbed record's time counts as decoding. A chunk records its
// metrics once it has mapped without error; the stream adds
// infer_records as it goes, so a live /debug/vars sees an in-flight
// stream's records.
func (e *Env) mapRecords(ctx context.Context, dec *infer.Decoder, stream bool) (*chunkAcc, int64, error) {
	clk := e.startClock()
	acc := e.feedAcc(dec)
	acc.sizesOnly = stream
	fold := fusion.NewTreeFold(e.Fusion.Fuse)
	absorbs := dec.Absorbs() && (stream || e.Cover != nil)
	var cover types.Type
	if absorbs && !stream {
		cover = e.Cover.get()
	}
	var live obs.Recorder
	if stream {
		live = e.Rec
	}
	done := ctx.Done()
	var records, absorbed int64
	for {
		select {
		case <-done:
			return nil, records, ctx.Err()
		default:
		}
		if absorbs {
			if size, hash, ok := absorb(dec, cover, fold.Partials()); ok {
				acc.tally(size, hash)
				records++
				absorbed++
				if live != nil {
					live.Add("infer_records", 1)
					live.Add("infer_absorbed_records", 1)
				}
				continue
			}
		}
		t, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, records, err
		}
		acc.add(t)
		records++
		if live != nil {
			live.Add("infer_records", 1)
		}
		clk.lap(&clk.decode)
		fold.Add(e.Fusion.Simplify(t))
		clk.lap(&clk.fuse)
	}
	clk.lap(&clk.decode)
	acc.fused = fold.Result()
	if cover != nil {
		e.Cover.add(e.Fusion, acc.fused)
	}
	clk.lap(&clk.fuse)
	clk.record()
	if rec := e.Rec; rec != nil {
		rec.Add("infer_bytes", dec.Offset())
		if !stream {
			rec.Add("infer_chunks", 1)
			rec.Add("infer_records", records)
			if absorbed > 0 {
				rec.Add("infer_absorbed_records", absorbed)
			}
			rec.Observe("infer_chunk_records", records)
			// Per-chunk fused sizes are the fusion-growth curve: how
			// far each partition's types collapse before the reduce.
			rec.Observe("infer_chunk_fused_size", int64(acc.fused.Size()))
		}
	}
	return acc, records, nil
}

// absorb matches the decoder's next record against the cover, if any,
// and then against each partial of a fold, from the largest down, and
// reports the first that admits it (see infer.Decoder.Absorb).
func absorb(dec *infer.Decoder, cover types.Type, partials []types.Type) (size int, hash uint64, ok bool) {
	if cover != nil {
		if size, hash, ok = dec.Absorb(cover); ok {
			return size, hash, ok
		}
	}
	for i := len(partials) - 1; i >= 0; i-- {
		if p := partials[i]; p != nil {
			if size, hash, ok = dec.Absorb(p); ok {
				return size, hash, ok
			}
		}
	}
	return 0, 0, false
}

// stageClock splits the busy time of one map-stage partition between
// decode+infer and fusion for Env.Rec. Each lap charges the time since
// the previous lap to one side; without a recorder it reads no clock,
// so a lap is one nil check.
type stageClock struct {
	rec          obs.Recorder
	last         time.Time
	decode, fuse int64
}

// startClock starts the stage's first lap.
func (e *Env) startClock() stageClock {
	if e.Rec == nil {
		return stageClock{}
	}
	return stageClock{rec: e.Rec, last: time.Now()}
}

// lap charges the time since the previous lap to side, one of the
// clock's own tallies.
func (c *stageClock) lap(side *int64) {
	if c.rec == nil {
		return
	}
	now := time.Now()
	*side += int64(now.Sub(c.last))
	c.last = now
}

// record adds the stage's tallies to infer_decode_ns and infer_fuse_ns.
func (c *stageClock) record() {
	if c.rec != nil {
		c.rec.Add("infer_decode_ns", c.decode)
		c.rec.Add("infer_fuse_ns", c.fuse)
	}
}

// feedAcc returns an empty accumulator for dec to fill. dec promotes
// under the Env's fusion strategy
// and, with enrichment on, observes every value into the accumulator's
// own lattice. A failed decode discards that lattice along with its
// accumulator, so a retried chunk observes into a fresh one and the
// combine stays exactly-once for enrichment too (docs/ENRICHMENT.md).
func (e *Env) feedAcc(dec *infer.Decoder) *chunkAcc {
	acc := e.newChunkAcc()
	if e.Enrich != nil {
		acc.lat = e.Enrich.NewLattice()
		dec.SetObserver(acc.lat)
	}
	// Checked here so a nil *fusion.Promoter never reaches the decoder
	// as a non-nil interface.
	if pr := e.Fusion.Promoter(); pr != nil {
		dec.SetPromoter(pr)
	}
	return acc
}
