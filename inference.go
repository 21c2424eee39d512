package jsoninference

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/mapreduce"
	"repro/internal/pipeline"
	"repro/internal/value"
)

// Options tune the inference pipeline.
type Options struct {
	// Workers bounds the map-phase parallelism of every Source; zero
	// means one worker per CPU.
	Workers int
	// PreserveTupleArrays enables the positional array extension
	// (Section 7 of the paper): arrays that always have the same small
	// length (at most 4) keep one type per position instead of
	// collapsing to [T*]. As under the default fusion, a record the
	// schema fused so far already covers is only matched, not typed
	// (docs/PERFORMANCE.md, "Absorbed members"), which changes the cost
	// but never the result.
	PreserveTupleArrays bool
	// TaggedUnions enables tagged-union (discriminated record) inference
	// — the record-fusion strategy described in docs/UNIONS.md. Records
	// that carry a discriminator field ("type", "event", "kind" by
	// default; see UnionKeys) holding a string of at most 40 bytes, or
	// that wrap their payload in a single variant-named field
	// (Twitter's {"delete": {...}}), are fused into a variants type:
	// one record type per observed tag plus an optional catch-all,
	// instead of one blurred record with every field optional.
	// The fused schema renders the union as variants(key){tag: {...}} and
	// exports to JSON Schema as a oneOf with const discriminators. The
	// merge stays commutative and associative (hypotheses that fail —
	// mixed discriminators, more than 16 tags — collapse to exactly the
	// record the default strategy infers), so worker count, chunking and
	// fault schedules remain invisible in the result.
	TaggedUnions bool
	// UnionKeys overrides the discriminator field names probed by
	// TaggedUnions, in priority order (earlier wins when a record carries
	// several). Empty means the default ["type", "event", "kind"]. Only
	// meaningful with TaggedUnions.
	UnionKeys []string
	// ChunkBytes is the chunk size of the bounded-memory cutter used by
	// FromReader, FromChunkedReader, FromFile and FromFiles; zero means
	// 64 KiB for FromReader and 256 KiB for the others. Those runs hold
	// one chunk buffer per worker (Workers of them, each ChunkBytes plus
	// at most one value), plus the few bytes read past the last cut. A
	// value longer than 16 chunks is decoded as a stream instead of
	// being held, so no buffer outgrows 16 × ChunkBytes.
	ChunkBytes int
	// Collector, when non-nil, accumulates pipeline metrics (records,
	// bytes, per-chunk latencies, the fusion-growth curve, map-reduce
	// engine internals) across the run. Snapshot it any time with
	// Collector.Metrics; nil costs one predictable branch per
	// instrumentation point (see BenchmarkInferNDJSON vs
	// BenchmarkInferNDJSONObserved).
	Collector *Collector
	// Retries is the per-chunk retry budget for transient map-phase
	// failures (I/O hiccups, injected faults). Retried chunks
	// re-execute with exponential backoff and deterministic jitter, and
	// by the fusion laws (associativity + commutativity) the resulting
	// schema is byte-identical to a fault-free run — the guarantee the
	// chaos harness in internal/chaos verifies. Zero disables retry.
	// Retries applies per chunk on every Source. Malformed input is
	// never retried: a chunk that fails to decode fails the same way on
	// every attempt, so it fails (or quarantines) at once. Neither is a
	// value longer than 16 chunks, which one task decodes as a stream
	// while it reads it.
	Retries int
	// OnError selects what the pipeline does with a chunk that still
	// fails after its retry budget: OnErrorFail (the default) aborts
	// the run, OnErrorSkip quarantines the chunk — the run completes
	// without its records and Stats.QuarantinedChunks reports how many
	// chunks were dropped. Use OnErrorSkip when a few corrupt records
	// must not kill a multi-million-record inference.
	OnError ErrorPolicy
	// FaultInjector, when non-nil, deterministically injects artificial
	// faults into the map phase — the chaos-testing hook. Production
	// callers leave it nil. See FaultInjector.
	FaultInjector FaultInjector
	// Enrich selects enrichment monoids (docs/ENRICHMENT.md) computed
	// alongside structural inference in the same pass: per-path value
	// statistics — "ranges" (numeric min/max), "hll" (approximate
	// distinct values), "bloom" (membership sketch), "formats" (string
	// format detection), "lengths" (array lengths), "numprec" (number
	// precision), "counts" (per-kind counts, string byte lengths, exact
	// numeric means) — or "all". Each entry may itself be a comma-separated
	// list, matching flag syntax. Results surface on the Schema:
	// JSONSchema output gains annotations, EnrichmentJSON reports them
	// per path, and Repository snapshots persist them. Enrichment is
	// purely additive: the structural schema, Stats and codec bytes
	// are identical with or without it, and like the schema itself the
	// statistics are byte-identical under any worker count, merge tree
	// or fault schedule (every monoid passes the conformance harness in
	// internal/enrich/monoidtest). Empty means off.
	Enrich []string
}

// env resolves the Options into the pipeline environment one Infer
// call runs under — the bundle every Source adapter and stage reads
// instead of threading (options, recorder, cover) as separate
// parameters. Every run gets a fresh cover, which spans all its chunks
// and files.
func (o Options) env() *pipeline.Env {
	env := &pipeline.Env{
		Fusion:     o.fusionOptions(),
		Workers:    o.workers(),
		ChunkBytes: o.ChunkBytes,
		Failure:    mapreduce.FailurePolicy{Retries: o.Retries, Skip: o.OnError == OnErrorSkip},
		Injector:   o.injector(),
		Cover:      &pipeline.Cover{},
	}
	if o.Collector != nil {
		env.Rec = o.Collector.recorder()
	}
	if len(o.Enrich) > 0 {
		// validate() already vetted the selection; an error here is
		// impossible by construction.
		set, err := enrich.ParseSet(o.Enrich)
		if err != nil {
			panic(err)
		}
		env.Enrich = set
	}
	return env
}

// ErrorPolicy selects what Infer does when a chunk of input repeatedly
// fails to process; see Options.OnError.
type ErrorPolicy int

const (
	// OnErrorFail aborts the run on the first chunk whose retry budget
	// is exhausted (the default).
	OnErrorFail ErrorPolicy = iota
	// OnErrorSkip quarantines such chunks instead: the run completes
	// without their records, Stats.QuarantinedChunks counts them, and
	// the mapreduce_skipped metric records each one.
	OnErrorSkip
)

// String names the policy for flags and errors.
func (p ErrorPolicy) String() string {
	switch p {
	case OnErrorFail:
		return "fail"
	case OnErrorSkip:
		return "skip"
	default:
		return fmt.Sprintf("ErrorPolicy(%d)", int(p))
	}
}

// InjectedFault is one artificial failure produced by a FaultInjector.
type InjectedFault struct {
	// Delay stalls the chunk's map attempt — an artificial straggler.
	Delay time.Duration
	// Err, when non-nil, aborts the attempt with this error instead of
	// processing the chunk. Wrap it with PermanentFault to defeat the
	// retry machinery.
	Err error
}

// FaultInjector deterministically injects faults into the map phase
// for chaos testing: it is consulted before every attempt (0-based) of
// every chunk (by chunk sequence number) and must be pure and safe for
// concurrent use. internal/chaos builds seeded injectors from
// randomized failure plans.
type FaultInjector func(chunk, attempt int) InjectedFault

// PermanentFault marks err as non-retryable: the pipeline gives up on
// the chunk immediately — aborting under OnErrorFail, quarantining
// under OnErrorSkip — without burning the retry budget.
func PermanentFault(err error) error { return mapreduce.Permanent(err) }

// fusionOptions copies the fusion switches onto the fusion policy.
func (o Options) fusionOptions() fusion.Options {
	return fusion.Options{
		Tuples:  o.PreserveTupleArrays,
		Tagged:  o.TaggedUnions,
		TagKeys: o.UnionKeys,
	}
}

// injector adapts Options.FaultInjector to the engine's hook.
func (o Options) injector() mapreduce.FaultInjector {
	fi := o.FaultInjector
	if fi == nil {
		return nil
	}
	return func(seq, attempt int) mapreduce.Fault {
		f := fi(seq, attempt)
		return mapreduce.Fault{Delay: f.Delay, Err: f.Err}
	}
}

// workers resolves the effective worker count.
func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// ErrInvalidOptions is wrapped by every error a negative or otherwise
// nonsensical Options field produces, from every entry point that
// accepts Options.
var ErrInvalidOptions = errors.New("jsoninference: invalid options")

// validate rejects Options values that have no meaningful
// interpretation. Zero always means "use the default", so only
// negative values are errors.
func (o Options) validate() error {
	switch {
	case o.Workers < 0:
		return fmt.Errorf("%w: Workers = %d, must be >= 0 (0 means one per CPU)", ErrInvalidOptions, o.Workers)
	case o.ChunkBytes < 0:
		return fmt.Errorf("%w: ChunkBytes = %d, must be >= 0 (0 means the Source's default)", ErrInvalidOptions, o.ChunkBytes)
	case o.Retries < 0:
		return fmt.Errorf("%w: Retries = %d, must be >= 0 (0 disables retry)", ErrInvalidOptions, o.Retries)
	case o.OnError != OnErrorFail && o.OnError != OnErrorSkip:
		return fmt.Errorf("%w: OnError = %d, must be OnErrorFail or OnErrorSkip", ErrInvalidOptions, int(o.OnError))
	}
	for _, k := range o.UnionKeys {
		if k == "" {
			return fmt.Errorf("%w: UnionKeys contains an empty key", ErrInvalidOptions)
		}
	}
	if len(o.Enrich) > 0 {
		if _, err := enrich.ParseSet(o.Enrich); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalidOptions, err)
		}
	}
	return nil
}

// Stats summarizes an inference run — the same measurements the paper
// reports per dataset in Tables 2-5.
type Stats struct {
	// Records is the number of top-level JSON values typed: a record
	// per line counts each record, while records inside one top-level
	// array count once, as the array.
	Records int64
	// Bytes is the number of input bytes consumed.
	Bytes int64
	// DistinctTypes is the number of distinct types the Map phase
	// produced. It is exact on every Source but FromReader (FromBytes,
	// FromFile, FromFiles, FromChunkedReader): each chunk keeps the
	// structural hashes of its records' types, absorbed records
	// included, and the run's chunks and files merge those sets
	// exactly. It is zero on FromReader, whose constant-memory chunks
	// tally sizes only and keep no such set.
	DistinctTypes int
	// MinTypeSize, MaxTypeSize and AvgTypeSize describe the sizes of the
	// per-value types; compare with Schema.Size to judge succinctness.
	MinTypeSize, MaxTypeSize int
	AvgTypeSize              float64
	// Retries counts retried map attempts under Options.Retries; zero
	// on a fault-free run.
	Retries int
	// QuarantinedChunks counts input chunks dropped under OnErrorSkip.
	// Their records are excluded from the schema and from Records;
	// Bytes still reports the full input presented to the pipeline.
	QuarantinedChunks int
}

// Infer runs schema inference over a Source — the one entry point
// behind InferNDJSON, InferReader, InferFile and InferFiles, and the
// only one that accepts a context and therefore supports cancellation
// and deadlines. Cancellation takes effect between records and leaves
// no goroutines behind.
//
// Construct the Source with FromBytes, FromReader, FromChunkedReader,
// FromFile or FromFiles; set Options.Collector to observe the run.
func Infer(ctx context.Context, src Source, opts Options) (*Schema, Stats, error) {
	if err := opts.validate(); err != nil {
		return nil, Stats{}, err
	}
	if src == nil {
		return nil, Stats{}, fmt.Errorf("%w: nil Source", ErrInvalidOptions)
	}
	return runSource(ctx, src, opts.env())
}

// runSource executes src under env, folds its accumulator once and
// records the run-level metrics, the final fold's time among them.
// With env.Cover nil every chunk types every record; the tests use that
// as a reference the absorbing path must match.
func runSource(ctx context.Context, src Source, env *pipeline.Env) (*Schema, Stats, error) {
	rec := env.Rec
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	acc, feed, err := src.run(ctx, env)
	if err != nil {
		return nil, Stats{}, err
	}
	var t1 time.Time
	if rec != nil {
		t1 = time.Now()
	}
	res := pipeline.Fold(acc)
	if rec != nil {
		rec.Add("infer_fold_ns", int64(time.Since(t1)))
	}
	st, schema := typeStats(res, feed)
	if rec != nil {
		wall := time.Since(t0)
		rec.Add("infer_wall_ns", int64(wall))
		rec.Set("infer_fused_size", int64(schema.Size()))
		if ns := int64(wall); ns > 0 {
			rec.Set("infer_records_per_sec", st.Records*int64(time.Second)/ns)
			rec.Set("infer_bytes_per_sec", st.Bytes*int64(time.Second)/ns)
		}
	}
	return schema, st, nil
}

// InferValue infers the schema of a single Go value of the shapes
// encoding/json produces (nil, bool, float64, string, map[string]any,
// []any, plus other Go numeric types).
func InferValue(v any) (*Schema, error) {
	cv, err := value.FromGo(v)
	if err != nil {
		return nil, fmt.Errorf("jsoninference: %w", err)
	}
	return newSchema(fusion.Simplify(infer.Infer(cv))), nil
}

// InferJSON infers the schema of exactly one JSON value.
func InferJSON(data []byte) (*Schema, error) {
	v, err := jsontext.ParseBytes(data)
	if err != nil {
		return nil, fmt.Errorf("jsoninference: %w", err)
	}
	return newSchema(fusion.Simplify(infer.Infer(v))), nil
}

// InferNDJSON infers the schema of a collection of whitespace-separated
// JSON values (one per line or concatenated), running the Map phase in
// parallel and fusing the results. It is Infer over FromBytes with a
// background context.
func InferNDJSON(data []byte, opts Options) (*Schema, Stats, error) {
	return Infer(context.Background(), FromBytes(data), opts)
}

// InferReader infers the schema of a stream of JSON values with constant
// memory: the stream is cut between values into 64 KiB chunks that
// parallel workers type and fuse while it is still being read, values
// never materialized as a whole. Use this for inputs too large to hold
// in memory; the schema is the one InferNDJSON gives for the same bytes.
// It is Infer over FromReader with a background context.
func InferReader(r io.Reader, opts Options) (*Schema, Stats, error) {
	return Infer(context.Background(), FromReader(r), opts)
}

// InferFile infers the schema of one NDJSON file with bounded memory:
// the file streams through chunks cut between values (Options.ChunkBytes
// each, 256 KiB by default) that are inferred and fused by parallel
// workers while the file is still being read. Use this for files too
// large for InferNDJSON's in-memory partitioning; the resulting schema
// is identical (associativity + commutativity), which the tests
// verify. It is Infer over FromFile with a background context.
func InferFile(path string, opts Options) (*Schema, Stats, error) {
	return Infer(context.Background(), FromFile(path), opts)
}

// InferFiles infers one schema across several NDJSON files, treating
// each file as a partition: files run through the same bounded-memory
// chunked pipeline as InferFile and their schemas are fused, the
// strategy of Section 6.2's partitioning experiment. It is Infer over
// FromFiles with a background context.
func InferFiles(paths []string, opts Options) (*Schema, Stats, error) {
	return Infer(context.Background(), FromFiles(paths...), opts)
}
