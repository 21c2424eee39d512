// Package pipeline is the one inference engine behind every entry
// point of the repository: the public Source kinds (bytes, reader,
// file, files), the experiments harness and the CLI all run the same
// composable stages —
//
//	split → decode+infer map → combine (monoid) → fold
//
// over an Env that carries the run's fusion policy, worker count,
// failure policy, recorder and dedup state. A future backend — sharded,
// serving, remote — is a new feed into the same Accumulator, not a
// second copy of the pipeline.
//
// Two drivers share the stages and fill the one Accumulator
// implementation: Run distributes line-aligned chunks over the
// map-reduce engine (parallel, fault-tolerant), and each chunk picks
// its own tactic under one adaptive cost model (see Dedup); RunStream
// types one record at a time with constant memory (sequential, never
// interning). Both leave no goroutines behind on error or
// cancellation, which pipeline_test.go pins with mid-feed and
// mid-combine cancel tests.
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
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/intern"
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
	// Dedup is the run's dedup machinery, which lets Run's chunks
	// intern their types when that pays. Nil means every chunk is
	// degraded from its first record: the plain tally and the online
	// balanced-tree fold, the tactic the experiments harness measures.
	// RunStream ignores it.
	Dedup *Dedup
	// Enrich, when non-nil, computes the configured enrichment monoids
	// (internal/enrich) alongside structural inference in the same
	// pass: each map task observes its chunk into a fresh lattice
	// carried on the chunk's Accumulator, lattices merge with the
	// accumulators, and the folded Result carries the combined lattice.
	// Purely additive — the structural schema and statistics are
	// byte-identical with or without it.
	Enrich *enrich.Set
}

// Dedup is the shared machinery of one run's adaptive cost model: the
// hash-consing table the decoders intern into, the memoized fusion
// policy keyed by that table's IDs, and the shared decision. One value
// spans all chunks, workers and files of a single run.
//
// Each map task samples the distinct-type ratio and the intern-table
// growth over the first records of its chunk (the whole chunk, if it
// is shorter than the window) and decides. A chunk that keeps
// interning fuses its distinct types once each, by a memoized left
// fold. A chunk that degrades, because hash-consing cannot pay for
// itself — an all-distinct window past the threshold that also
// allocates several new interned nodes per record — types the rest of
// its records down the plain tally, fusing each into an online
// balanced-tree fold as it is decoded, and adds its interned types to
// that fold at the end. The decision is re-checked at every combine
// boundary against the merged multiset cardinality, and the outcome is
// shared across chunks through an atomic hint so settled runs stop
// sampling.
// Only the cost is adaptive: schemas and statistics are byte-identical
// to the degraded tactic alone (pinned by the differential and chaos
// suites).
type Dedup struct {
	Tab  *intern.Table
	Memo *fusion.Memo

	// sample is the number of records each chunk types through the
	// interner before deciding.
	sample int64
	// threshold is the sampled distinct-type ratio at or above which a
	// chunk degrades (subject to the nodeGrowth guard).
	threshold float64
	// nodeGrowth is the minimum new interned nodes per sampled record
	// for a degrade: high-ratio data whose subtrees still dedup (shared
	// nested shapes) keeps paying for hash-consing.
	nodeGrowth float64

	// hint is the shared adaptive decision: hintSample (zero) makes the
	// next chunk sample, hintDedup keeps chunks on the interning path,
	// hintDegrade sends whole chunks down the plain tally. Cost-only:
	// with several workers the hint a chunk observes depends on timing,
	// but every mix of degraded and deduplicated chunks folds to the
	// same bytes.
	hint atomic.Int32
	// sampRecs/sampNodes accumulate the sampled record count and the
	// intern-table growth across chunks — the node-growth evidence the
	// combine-boundary re-check reuses.
	sampRecs  atomic.Int64
	sampNodes atomic.Int64
}

// Adaptive-dedup defaults: sample size, degrade ratio, and the
// node-growth guard. The guard separates data that is all-distinct at
// the top level but shares subtrees (nytimes: ~0.7-1.4 new nodes per
// record, dedup wins) from ids-as-keys data where nearly every node is
// fresh (wikidata: 3-7 new nodes per record, interning is pure
// overhead).
const (
	DefaultDedupSample     = 256
	DefaultDedupThreshold  = 0.9
	DefaultDedupNodeGrowth = 2.5
)

// Shared hint values.
const (
	hintSample  int32 = 0
	hintDedup   int32 = 1
	hintDegrade int32 = -1
)

// NewDedup builds the dedup machinery for one run under the given
// fusion policy.
func NewDedup(o fusion.Options) *Dedup {
	tab := intern.NewTable()
	return &Dedup{
		Tab:        tab,
		Memo:       fusion.NewMemo(o, tab),
		sample:     DefaultDedupSample,
		threshold:  DefaultDedupThreshold,
		nodeGrowth: DefaultDedupNodeGrowth,
	}
}

// Record adds the run's cache-effectiveness counters to rec once the
// run has interned anything; a run that never interned (a stream, or a
// nil Dedup) records none. The counters are deterministic at one worker
// on a fault-free run; under concurrency or retries the hit/miss split
// can shift (double-computed entries, re-parsed chunks, sampling
// decisions that follow the shared hint), which is why obs strips them
// with WithoutCache.
func (dd *Dedup) Record(rec obs.Recorder) {
	if dd == nil {
		return
	}
	hits, misses := dd.Tab.Stats()
	if hits+misses == 0 {
		return
	}
	rec.Add("intern_hits", hits)
	rec.Add("intern_misses", misses)
	fh, fm, sh, sm := dd.Memo.CacheStats()
	rec.Add("fuse_cache_hits", fh)
	rec.Add("fuse_cache_misses", fm)
	rec.Add("simplify_cache_hits", sh)
	rec.Add("simplify_cache_misses", sm)
}

// ref returns the table entry of a type the interning decoder produced.
func (dd *Dedup) ref(t types.Type) intern.Ref {
	r, ok := dd.Tab.Ref(t)
	if !ok {
		// Unreachable under the interner invariant, but keep the
		// multiset sound if it ever breaks.
		r, _ = dd.Tab.Ref(dd.Tab.Canon(t))
	}
	return r
}

// settle closes one chunk's sample window — records typed through the
// interner, distinct of them distinct, nodes new table entries — folds
// its evidence into the shared tallies, evaluates the degrade predicate
// over the window, publishes the outcome as the shared hint and reports
// whether the chunk degrades.
func (dd *Dedup) settle(distinct, records, nodes int64) bool {
	dd.sampRecs.Add(records)
	dd.sampNodes.Add(nodes)
	degrade := float64(distinct) >= dd.threshold*float64(records) && dd.sampledGrowth() >= dd.nodeGrowth
	if degrade {
		dd.hint.Store(hintDegrade)
	} else {
		dd.hint.Store(hintDedup)
	}
	return degrade
}

// sampledGrowth returns the observed new-interned-nodes-per-record rate
// across all samples so far, or 0 before any sample completes.
func (dd *Dedup) sampledGrowth() float64 {
	recs := dd.sampRecs.Load()
	if recs == 0 {
		return 0
	}
	return float64(dd.sampNodes.Load()) / float64(recs)
}

// recheck is the combine-boundary half of the cost model: once enough
// records have merged, the multiset cardinality versus its record total
// re-tests the degrade predicate (with the node-growth evidence
// gathered while sampling), and a degraded run whose plain tally turns
// repetitive is sent back to sampling. Purely a shared cost hint — it
// never changes what the accumulator folds to.
func (dd *Dedup) recheck(a *chunkAcc) {
	if n := a.ms.Total(); n >= dd.sample {
		if float64(a.ms.Len()) >= dd.threshold*float64(n) {
			if dd.sampledGrowth() >= dd.nodeGrowth {
				dd.hint.Store(hintDegrade)
			}
		} else {
			dd.hint.Store(hintDedup)
		}
	}
	if n := a.sum.Count(); n >= dd.sample && float64(a.sum.Distinct()) < dd.threshold*float64(n) {
		dd.hint.Store(hintSample)
	}
}

// A Feed produces the line-aligned chunks of one input through emit,
// in order, and may block. Emit fails once the pipeline stops (error
// or cancellation), so a feed that forwards emit's error — or simply
// stops, like SliceFeed — can never wedge the run. A non-nil return
// marks the *producer* as failed (an I/O error reading the input) and
// surfaces as a FeedError, distinguishable from decode errors.
type Feed func(emit func([]byte) error) error

// SliceFeed feeds an in-memory slice of chunks.
func SliceFeed(chunks [][]byte) Feed {
	return func(emit func([]byte) error) error {
		for _, chunk := range chunks {
			if err := emit(chunk); err != nil {
				return nil // the pipeline stopped; it carries the error
			}
		}
		return nil
	}
}

// A FeedError marks a failure of the input producer (the feed reading
// chunks) as opposed to the pipeline decoding them, so callers can
// word — and callers' callers programmatically distinguish — the two.
type FeedError struct{ Err error }

func (e *FeedError) Error() string { return e.Err.Error() }
func (e *FeedError) Unwrap() error { return e.Err }

// StreamBatchRecords is the cancellation batch of the streaming
// driver: RunStream checks the context once per batch instead of once
// per record, which keeps the per-record loop to decode + accumulate
// (metrics stay per-record — a lone atomic add, and live /debug/vars
// readers must see an in-flight stream's records). Error positions are
// exact regardless ("record %d" comes from the per-record counter);
// only cancellation latency is quantized, to at most one batch.
const StreamBatchRecords = 64

// Run distributes the feed's chunks over the map-reduce engine: each
// chunk is typed and locally folded into an Accumulator (the
// combiner), and accumulators merge associatively + commutatively into
// one. The feed's producer goroutine is always joined before Run
// returns, so no goroutine outlives the call. The returned Accumulator
// is nil when the feed produced nothing (Fold handles it); callers
// that span several inputs under one Env (FromFiles) Combine the
// returned accumulators before folding.
func Run(ctx context.Context, env *Env, feed Feed) (Accumulator, mapreduce.Stats, error) {
	return RunPooled(ctx, env, feed, nil)
}

// RunPooled is Run with a buffer-recycling hook for pooled feeds:
// release (when non-nil) is called exactly once per chunk after its
// final map attempt completes — success, quarantine, or failure — so a
// ChunkPool-backed feed can hand each buffer back for reuse. The hook
// fires only after every retry of the chunk is over (retries re-decode
// the same bytes), and chunks still queued when a run aborts are never
// released; they fall to the garbage collector. The map stage never
// retains chunk bytes past its return (decoded types copy every string
// they keep), which is what makes recycling sound.
func RunPooled(ctx context.Context, env *Env, feed Feed, release func([]byte)) (Accumulator, mapreduce.Stats, error) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// The chunk channel holds one queued chunk per worker (one when
	// Workers is left to the engine): the reader runs ahead of the map
	// stage (I/O overlapping compute), and a run holds at most
	// 2·Workers+2 emitted chunks — one per map attempt, one per queue
	// slot, one in the engine's hand-off and one blocked in emit — plus
	// the feed's buffer for the next chunk. Chunks parked in the queue
	// at abort are simply dropped.
	src := make(chan []byte, max(env.Workers, 1))
	feedDone := make(chan struct{})
	var feedErr error
	go func() {
		defer close(feedDone)
		defer close(src)
		feedErr = feed(func(chunk []byte) error {
			select {
			case src <- chunk:
				return nil
			case <-runCtx.Done():
				return runCtx.Err()
			}
		})
	}()

	mapFn := func(_ context.Context, chunk []byte) (Accumulator, error) {
		return env.mapChunk(chunk)
	}
	out, mrst, err := mapreduce.RunReleased(runCtx, src, mapFn, Combine, nil,
		mapreduce.Config{Workers: env.Workers, Recorder: env.Rec, Failure: env.Failure, Injector: env.Injector}, release)
	if err != nil {
		// Unblock and join the feeder before returning so no goroutine
		// outlives the call.
		cancel()
		<-feedDone
		return nil, mrst, err
	}
	<-feedDone
	if feedErr != nil {
		return nil, mrst, &FeedError{Err: feedErr}
	}
	return out, mrst, nil
}

// mapChunk is the decode+infer map stage: it types every value of one
// line-aligned chunk into a fresh chunkAcc under the cost model of
// Dedup. Unless the shared hint has settled on degrading, the chunk
// types records through the intern table until its sample window fills
// or the chunk ends, then decides over what it sampled. A chunk that
// keeps interning fuses each distinct type once, by a memoized left
// fold: chunks of similar data replay the same (accumulated, distinct)
// fuse pairs, so the memo absorbs most of the work. A degraded chunk —
// every chunk under a nil Env.Dedup — tallies, simplifies and fuses
// each remaining record as soon as it is decoded, through one online
// balanced-tree fold (fusion.TreeFold) that the sampled, interned types
// join at the end. The chunk never holds its records' types: the fold
// keeps O(log records) partial types, and its balanced shape avoids
// the left fold that would rebuild (and the memo cache) every growing
// intermediate record on high-entropy data. With Env.Rec set, a
// degraded record's fusion is clocked one record at a time, so the
// infer_fuse_ns it records excludes decoding under either tactic.
func (e *Env) mapChunk(chunk []byte) (Accumulator, error) {
	clk := e.startClock()
	dec := infer.NewBytesDecoder(chunk, jsontext.Options{MaxDepth: e.MaxDepth})
	defer dec.Release()
	dd := e.Dedup
	acc := e.feedAcc(dec, dd)
	interned := dd != nil && dd.hint.Load() != hintDegrade
	var (
		sampled, records int64
		tab0             int
	)
	fold := fusion.NewTreeFold(e.Fusion.Fuse)
	if interned {
		dec.SetInterner(dd.Tab)
		tab0 = dd.Tab.Len()
	}
	for {
		t, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		records++
		if !interned {
			acc.sum.Add(t)
			clk.lap(&clk.decode)
			fold.Add(e.Fusion.Simplify(t))
			clk.lap(&clk.fuse)
			continue
		}
		acc.ms.Add(dd.ref(t), 1)
		if sampled++; sampled == dd.sample && dd.settle(int64(acc.ms.Len()), sampled, int64(dd.Tab.Len()-tab0)) {
			interned = false
			dec.SetInterner(nil)
		}
	}
	if interned && sampled < dd.sample && sampled > 0 {
		// The chunk ended inside its window: decide over what it sampled.
		interned = !dd.settle(int64(acc.ms.Len()), sampled, int64(dd.Tab.Len()-tab0))
	}
	clk.lap(&clk.decode)
	if interned {
		for _, el := range acc.ms.Elems() {
			acc.fused = dd.Memo.Fuse(acc.fused, dd.Memo.Simplify(el.Type))
		}
	} else {
		for _, el := range acc.ms.Elems() {
			fold.Add(e.Fusion.Simplify(el.Type))
		}
		acc.fused = fold.Result()
	}
	clk.lap(&clk.fuse)
	clk.record()
	e.recordChunk(records, int64(len(chunk)), acc.fused)
	return acc, nil
}

// stageClock splits the busy time of one map task or stream between
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

// feedAcc returns an empty accumulator for dec to fill, re-checking dd
// at merges (nil: never). dec promotes under the Env's fusion strategy
// and, with enrichment on, observes every value into the accumulator's
// own lattice. A failed decode discards that lattice along with its
// accumulator, so a retried chunk observes into a fresh one and the
// combine stays exactly-once for enrichment too (docs/ENRICHMENT.md).
func (e *Env) feedAcc(dec *infer.Decoder, dd *Dedup) *chunkAcc {
	acc := e.newChunkAcc(dd)
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

// absorbs reports whether RunStream absorbs members of the running
// fused type: under the paper's fusion, for which the membership lemma
// is proved (the tagged strategy's variants break it). With enrichment
// on, the decoder declines by itself, since its observer must see
// every value.
func (e *Env) absorbs() bool {
	_, paper := e.Fusion.ResolvedStrategy().(fusion.Paper)
	return paper
}

// recordChunk emits the per-chunk metrics of the map stage.
func (e *Env) recordChunk(records, bytes int64, fused types.Type) {
	if rec := e.Rec; rec != nil {
		rec.Add("infer_chunks", 1)
		rec.Add("infer_records", records)
		rec.Add("infer_bytes", bytes)
		rec.Observe("infer_chunk_records", records)
		// Per-chunk fused sizes are the fusion-growth curve: how
		// far each partition's types collapse before the reduce.
		rec.Observe("infer_chunk_fused_size", int64(fused.Size()))
	}
}

// RunStream types a stream of JSON values one at a time with constant
// memory: the sequential driver, a left fold into one accumulator
// through its Add. It never interns — Env.Dedup is ignored — so memory
// stays flat even when every record has a type of its own. Returns the
// accumulator and the number of input bytes consumed. Cancellation
// takes effect between records.
//
// Under the paper's fusion with no enrichment, a record that is a
// member of the type fused so far is absorbed: matched on its tokens
// (infer.Decoder.Absorb) and tallied by size, never typed, simplified
// or fused. Fusing it would return the fused type unchanged
// (docs/PERFORMANCE.md, "Absorbed members"), so the result is the same
// bytes. Only a record the fused type does not cover is decoded.
func RunStream(ctx context.Context, env *Env, r io.Reader) (Accumulator, int64, error) {
	dec := infer.NewDecoder(r, jsontext.Options{MaxDepth: env.MaxDepth})
	defer dec.Release()
	acc := env.feedAcc(dec, nil)
	absorb := env.absorbs()
	var records int64
	clk := env.startClock()
	for {
		// Batched cancellation: the ctx check runs once per
		// StreamBatchRecords (including before the first record, so a
		// pre-cancelled context never starts work); the steady-state
		// loop is decode + accumulate only. Metrics stay per-record —
		// they are a single atomic add, free when no Recorder is
		// installed, and a live /debug/vars must see an in-flight
		// stream's records before the first batch boundary.
		if records%StreamBatchRecords == 0 {
			select {
			case <-ctx.Done():
				return nil, 0, fmt.Errorf("record %d: %w", records+1, ctx.Err())
			default:
			}
		}
		if absorb {
			if size, ok := dec.Absorb(acc.fused); ok {
				acc.addMember(size)
				clk.lap(&clk.decode)
				records++
				if env.Rec != nil {
					env.Rec.Add("infer_records", 1)
					env.Rec.Add("infer_absorbed_records", 1)
				}
				continue
			}
		}
		t, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, 0, fmt.Errorf("record %d: %w", records+1, err)
		}
		clk.lap(&clk.decode)
		acc.Add(t)
		clk.lap(&clk.fuse)
		records++
		if env.Rec != nil {
			env.Rec.Add("infer_records", 1)
		}
	}
	clk.lap(&clk.decode)
	clk.record()
	n := dec.Offset()
	if env.Rec != nil {
		env.Rec.Add("infer_bytes", n)
	}
	return acc, n, nil
}
