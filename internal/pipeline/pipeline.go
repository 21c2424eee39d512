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
// One loop maps chunks cut between values over the map-reduce engine
// (parallel, fault-tolerant) with one map stage, mapRecords, into the
// one Accumulator. It has two feeds: Run takes an in-memory Feed, and
// RunReader cuts a reader with a jsontext.LineCutter. Each record is
// walked once, against the schema fused so far (see Cover and
// mapRecords): a member is tallied, never typed, and any other record
// is typed only where it differs, unless the decoder declines to absorb
// (infer.Decoder.Absorbs: tagged unions and enrichment), when it is
// typed whole. A run leaves no goroutines behind on error or
// cancellation, which pipeline_test.go pins with mid-feed and
// mid-combine cancel tests.
//
// The stages time themselves through Env.Rec: each map task adds its
// decode+infer and its fusion busy time to the infer_decode_ns and
// infer_fuse_ns counters, and the map-reduce engine observes every
// combine into mapreduce_combine_ns. With the caller's final Fold they
// attribute a one-worker run's wall time, less what no stage owns
// (cutting, feeding, scheduling); the experiments harness reads the
// paper's Table 6 split from them.
package pipeline

import (
	"bytes"
	"context"
	"errors"
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
// once per run and pass it to Run or RunReader; every field is
// read-only to the stages, which keep mutable state in their
// Accumulators.
type Env struct {
	// Fusion is the run's fusion policy.
	Fusion fusion.Options
	// Workers bounds the map-phase parallelism of Run; values <= 0 mean
	// one worker per CPU (resolved by the map-reduce engine).
	Workers int
	// ChunkBytes is the chunk size RunReader cuts; zero means 256 KiB,
	// or 64 KiB under SizesOnly.
	ChunkBytes int
	// SizesOnly, the stream's setting (FromReader), has every
	// accumulator tally type sizes alone, with no hash computed or kept,
	// so memory stays flat however many distinct types the input holds,
	// and DistinctTypes is zero.
	SizesOnly bool
	// Failure and Injector configure the map-reduce failure handling.
	Failure  mapreduce.FailurePolicy
	Injector mapreduce.FaultInjector
	// Rec receives pipeline metrics, including each stage's busy time
	// (docs/OBSERVABILITY.md); nil records nothing and reads no clock.
	Rec obs.Recorder
	// Cover, when non-nil, lets the chunks absorb the records it or
	// the chunk's own fold already covers (see Cover), whenever the
	// decoder absorbs at all (infer.Decoder.Absorbs); Options.env gives
	// every run a fresh one. Nil, or a run whose decoder declines,
	// means every chunk types every record and the cover is never
	// fused into; nil is the fold the experiments harness measures.
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

// A Feed yields the chunks of one input, each cut between values, in
// order, one per call, with the shape of mapreduce.Run's next: prev is
// a chunk it yielded before (nil on a worker's first call), handed back
// once its final map attempt is over, so a pooled feed
// (jsontext.LineCutter's Next) can recycle the buffer. ok false marks
// the end of the input, and the feed must report the end again if
// called once more. A non-nil error marks the *producer* as failed (an
// I/O error reading the input) and surfaces as a FeedError,
// distinguishable from decode errors. The engine calls a Feed under its
// lock, so it needs no synchronization of its own, and stops calling it
// once the run ends.
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
// chunk is typed and locally folded into an Accumulator (the combiner),
// and accumulators merge associatively + commutatively into one. Workers
// pull the chunks themselves, handing back the chunk they finished, so
// a run holds one chunk per worker and no goroutine outlives the call;
// the map stage keeps nothing aliasing a chunk, so recycling is sound.
// The Accumulator is nil when the feed produced nothing (Fold handles
// it); FromFiles Combines the accumulators of its files.
func Run(ctx context.Context, env *Env, feed Feed) (Accumulator, mapreduce.Stats, error) {
	return env.run(ctx, func(prev []byte) ([]byte, io.Reader, bool, error) {
		data, ok, err := feed(prev)
		return data, nil, ok, err
	})
}

// RunReader is Run over a jsontext.LineCutter of r, cutting chunks of
// env.ChunkBytes (64 KiB by default under SizesOnly, the stream's
// setting) into buffers from pool, and also returns the number of bytes
// read. A chunk that spills (jsontext.SpillChunks) is decoded with the
// rest of r as a stream by one map task, which fails for good on its
// first error, since it consumes what it reads.
func RunReader(ctx context.Context, env *Env, r io.Reader, pool *jsontext.ChunkPool) (Accumulator, int64, mapreduce.Stats, error) {
	chunkBytes := env.ChunkBytes
	if chunkBytes == 0 && env.SizesOnly {
		chunkBytes = 64 << 10
	}
	fr := &feedReader{r: r}
	acc, st, err := env.run(ctx, jsontext.NewLineCutter(fr, chunkBytes, pool).NextOrRest)
	return acc, fr.n, st, err
}

// RunStream is RunReader under SizesOnly with no pool and, when env has
// none, a cover of its own, so it absorbs wherever the decoder does.
func RunStream(ctx context.Context, env *Env, r io.Reader) (Accumulator, int64, error) {
	s := *env
	s.SizesOnly = true
	if s.Cover == nil {
		s.Cover = &Cover{}
	}
	acc, n, _, err := RunReader(ctx, &s, r, nil)
	return acc, n, err
}

// run maps the chunks next yields: the one loop behind Run and RunReader.
func (e *Env) run(ctx context.Context, next func(prev []byte) ([]byte, io.Reader, bool, error)) (Accumulator, mapreduce.Stats, error) {
	var base int64
	pull := func(prev chunk) (chunk, bool, error) {
		data, rest, ok, err := next(prev.data)
		if fe := (*FeedError)(nil); err != nil && !errors.As(err, &fe) {
			err = &FeedError{Err: err}
		}
		c := chunk{data: data, rest: rest, base: base}
		base += int64(len(data))
		return c, ok, err
	}
	return mapreduce.Run(ctx, pull, e.mapChunk, Combine, nil,
		mapreduce.Config{Workers: e.Workers, Recorder: e.Rec, Failure: e.Failure, Injector: e.Injector})
}

// A chunk is one piece of a feed, its offset in the input (the length
// of the chunks before it) and, if it spilled, the reader it goes on in.
type chunk struct {
	data []byte
	rest io.Reader
	base int64
}

// A feedReader counts the bytes read and marks a failed read a
// FeedError; its readers never overlap and are joined by the run's end.
type feedReader struct {
	r io.Reader
	n int64
}

func (f *feedReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	f.n += int64(n)
	if err != nil && err != io.EOF {
		err = &FeedError{Err: err}
	}
	return n, err
}

// mapChunk runs the map stage over one chunk (see mapRecords) until
// ctx, the map task's, is done. A decode error is permanent: the
// chunk's bytes fail the same way on every attempt (a spilled chunk's
// rest is consumed), so the engine gives the chunk up at once, under
// Skip quarantining it. A syntax error reports its offset in the input,
// not in the chunk.
func (e *Env) mapChunk(ctx context.Context, c chunk) (Accumulator, error) {
	var dec *infer.Decoder
	if c.rest == nil {
		dec = infer.NewBytesDecoder(c.data)
	} else {
		dec = infer.NewDecoder(io.MultiReader(bytes.NewReader(c.data), c.rest), jsontext.Options{})
	}
	defer dec.Release()
	acc, err := e.mapRecords(ctx, dec)
	if err != nil {
		// The decoder's error is its own, fresh per call.
		if se := (*jsontext.SyntaxError)(nil); errors.As(err, &se) {
			se.Offset += c.base
		}
		return nil, mapreduce.Permanent(err)
	}
	return acc, nil
}

// mapRecords is the decode+infer map stage, the one per-record loop: it
// walks the records dec reads into a fresh chunkAcc, each once
// (infer.Decoder.Walk). Under a run cover (Env.Cover), and if the
// decoder absorbs (infer.Decoder.Absorbs), each record is walked
// against one reference: the cover as the chunk found it when that is
// not empty, otherwise the largest partial of the chunk's fold. A
// member of the reference is tallied and nothing else. Every other
// record is tallied and its walked type, simplified already and
// holding the reference's nodes wherever the record matched it, is
// fused through one online balanced-tree fold (fusion.TreeFold), which
// keeps O(log records) partial types and avoids the left fold that
// would rebuild every growing intermediate record on high-entropy data.
// The chunk's fused type then joins the cover. With Env.Rec set, the
// walk is clocked as decoding and the fold as fusion, and the chunk
// records its metrics once it has mapped.
func (e *Env) mapRecords(ctx context.Context, dec *infer.Decoder) (*chunkAcc, error) {
	clk := e.startClock()
	acc := e.feedAcc(dec)
	// A closure over e: the method value e.Fusion.Fuse would copy the
	// policy into a closure of its own per chunk.
	fold := fusion.NewTreeFold(func(a, b types.Type) types.Type { return e.Fusion.Fuse(a, b) })
	var cover types.Type
	if e.Cover != nil && dec.Absorbs() {
		cover = e.Cover.get()
	}
	done := ctx.Done()
	var absorbed int64
	for {
		select {
		case <-done:
			return nil, ctx.Err()
		default:
		}
		ref := cover
		if p := fold.Partials(); ref == types.Type(types.Empty) && len(p) > 0 {
			ref = p[len(p)-1] // the top level of a fold is never nil
		}
		t, size, hash, err := dec.Walk(ref, !e.SizesOnly)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		acc.tally(size, hash)
		clk.lap(&clk.decode)
		if t == nil {
			absorbed++
			continue
		}
		fold.Add(t)
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
		records := acc.sum.Count()
		rec.Add("infer_bytes", dec.Offset())
		rec.Add("infer_chunks", 1)
		rec.Add("infer_records", records)
		if absorbed > 0 {
			rec.Add("infer_absorbed_records", absorbed)
		}
		rec.Observe("infer_chunk_records", records)
		// Per-chunk fused sizes are the fusion-growth curve: how far
		// each partition's types collapse before the reduce.
		rec.Observe("infer_chunk_fused_size", int64(acc.fused.Size()))
	}
	return acc, nil
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
// under the Env's fusion policy and, with enrichment on, observes
// every value into the accumulator's own lattice. A failed decode discards that lattice along with its
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
	// A pointer, so installing the policy boxes nothing per chunk.
	dec.SetSimplifier(&e.Fusion)
	return acc
}
