package jsoninference

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/jsontext"
	"repro/internal/mapreduce"
	"repro/internal/pipeline"
)

// A Source is an input to Infer: a byte buffer, a stream, a file or a
// set of files. Construct one with FromBytes, FromReader,
// FromChunkedReader, FromFile or FromFiles. The interface is sealed —
// each kind is a thin adapter that gives the one pipeline engine
// (internal/pipeline) its feed: an in-memory split of the buffer, or a
// reader cut into chunks as it is read. Every kind cuts by the same
// rule, only between top-level values, so every kind accepts the same
// inputs, pretty-printed values included, and Infer stays one entry
// point over one code path. See docs/ARCHITECTURE.md for how to add a
// kind.
type Source interface {
	// run executes the pipeline over this input under env, which bundles
	// the run's cross-cutting state (fusion policy, workers, failure
	// policy, recorder, cover). It returns the unfolded
	// accumulator and the feed-side Stats (Bytes, Retries,
	// QuarantinedChunks); runSource folds once for the type-level rest.
	run(ctx context.Context, env *pipeline.Env) (pipeline.Accumulator, Stats, error)
}

// FromBytes is an in-memory NDJSON buffer (one or more
// whitespace-separated JSON values): the buffer is split between values
// into one chunk per map task and the chunks are inferred in parallel.
// Beyond the buffer itself, a task's type memory grows with its chunk's
// fused schema and the hashes of its distinct types, not its record
// count: each record is fused as it is decoded or, without TaggedUnions
// and Enrich, only matched when the schema fused so far already covers
// it.
func FromBytes(data []byte) Source { return bytesSource{data: data} }

// FromReader is a stream of JSON values processed in constant memory:
// the stream is cut between values into 64 KiB chunks (or
// Options.ChunkBytes) that parallel workers infer while the stream is
// still being read, each worker cutting its own next chunk, with the
// full failure machinery (Options.Retries, Options.OnError) per chunk.
// Values are typed and fused as they are decoded, never materialized as
// a whole, and a chunk is handed on as soon as the producer pauses at a
// line end, so a live pipe is typed as it arrives. A document that
// spans more than 16 chunks without a cut between values, such as one
// large pretty-printed array, is decoded as a stream by one task
// instead of being buffered. Without TaggedUnions and Enrich, a value
// the schema fused so far already covers is only matched, not typed,
// which changes the cost but never the result. Use it for inputs too
// large to buffer; note that Stats.DistinctTypes is unavailable (zero)
// on this path, which keeps no set of distinct types. The reader is
// consumed until EOF or error.
func FromReader(r io.Reader) Source { return readerSource{r: r} }

// FromFile is one NDJSON file processed with bounded memory: the file
// is cut between values into chunks (Options.ChunkBytes each) that are
// inferred and fused by parallel workers while the file is still being
// read. Each worker cuts its own next chunk from the file as it
// finishes the last, so a run holds one chunk buffer per worker. A
// pretty-printed value spanning several lines is never cut, and one
// spanning more than 16 chunks is decoded as a stream, as FromReader
// does.
func FromFile(path string) Source { return filesSource{paths: []string{path}} }

// FromChunkedReader is a stream of JSON values processed through the
// same bounded-memory chunked parallel pipeline as FromFile: the stream
// is cut between values into chunks (Options.ChunkBytes each) that are
// inferred by parallel workers while the stream is still being read,
// each worker cutting its own next chunk, so a run holds one chunk
// buffer per worker; the full failure machinery (Options.Retries,
// Options.OnError) applies per chunk. It differs from FromReader only in
// its defaults: 256 KiB chunks, and an exact Stats.DistinctTypes.
// cmd/schemad feeds ingest request bodies through it. The reader is
// consumed until EOF or error.
func FromChunkedReader(r io.Reader) Source { return chunkedSource{r: r} }

// FromFiles is a set of NDJSON files treated as partitions: each file
// runs through the same bounded-memory chunked pipeline as FromFile
// and the per-file results merge, which by associativity equals
// inferring the concatenation. One cover and the distinct-type sets
// span the files, so Stats.DistinctTypes is exact across them. A value
// must not span two files.
func FromFiles(paths ...string) Source {
	return filesSource{paths: append([]string(nil), paths...)}
}

// A FeedError marks a failure of the input producer — opening or
// reading the underlying file or feed — as opposed to the pipeline
// decoding its records. Unwrap errors from Infer with errors.As to
// distinguish the two: a FeedError means the input could not be
// delivered (retry the I/O, check the path), while a bare decode error
// means the bytes arrived but were not valid JSON. The wrapped Err
// preserves the OS-level cause, so errors.Is(err, fs.ErrNotExist)
// works through it.
type FeedError struct {
	// Path is the file being read, or empty for non-file feeds.
	Path string
	// Err is the underlying I/O error.
	Err error
}

func (e *FeedError) Error() string {
	if e.Path == "" {
		return fmt.Sprintf("reading input: %v", e.Err)
	}
	return fmt.Sprintf("reading %s: %v", e.Path, e.Err)
}

func (e *FeedError) Unwrap() error { return e.Err }

// typeStats fills the type-level fields of feed-side Stats from a
// folded pipeline Result and returns them with the Result's Schema.
func typeStats(res pipeline.Result, st Stats) (Stats, *Schema) {
	st.Records = res.Records
	st.DistinctTypes = res.DistinctTypes
	st.MinTypeSize, st.MaxTypeSize, st.AvgTypeSize = res.MinTypeSize, res.MaxTypeSize, res.AvgTypeSize
	return st, newSchema(res.Fused).withEnrichment(res.Enrichment)
}

// feedStats is the feed side of a chunked run's Stats.
func feedStats(bytes int64, mrst mapreduce.Stats) Stats {
	return Stats{Bytes: bytes, Retries: mrst.Retries, QuarantinedChunks: len(mrst.Quarantined)}
}

// bytesSource implements FromBytes: split in memory, feed the chunks.
type bytesSource struct{ data []byte }

func (s bytesSource) run(ctx context.Context, env *pipeline.Env) (pipeline.Accumulator, Stats, error) {
	chunks := jsontext.SplitLines(s.data, env.Workers*4)
	out, mrst, err := pipeline.Run(ctx, env, pipeline.SliceFeed(chunks))
	if err != nil {
		return nil, Stats{}, fmt.Errorf("jsoninference: %w", err)
	}
	return out, feedStats(int64(len(s.data)), mrst), nil
}

// readerSource implements FromReader: the chunked pipeline in the
// stream's setting, pipeline.Env.SizesOnly.
type readerSource struct{ r io.Reader }

func (s readerSource) run(ctx context.Context, env *pipeline.Env) (pipeline.Accumulator, Stats, error) {
	stream := *env
	stream.SizesOnly = true
	return runReader(ctx, &stream, s.r, "")
}

// chunkedSource implements FromChunkedReader: the stream feeds the
// chunked pipeline through the same cutter the file sources use.
type chunkedSource struct{ r io.Reader }

func (s chunkedSource) run(ctx context.Context, env *pipeline.Env) (pipeline.Accumulator, Stats, error) {
	return runReader(ctx, env, s.r, "")
}

// chunkPool recycles chunk buffers across every chunked run of the
// process: the cutter fills one, the map stage decodes it, and the
// worker hands it back (only after the chunk's final retry attempt) as
// it pulls its next chunk, which the cutter cuts into a buffer from the
// pool, of this run or a later one. A large file or a server ingesting
// many small bodies allocates a handful of buffers total, each sized to
// its chunk, not one per run.
var chunkPool jsontext.ChunkPool

// runReader feeds r, the file at path or a stream (path empty), through
// the chunked pipeline in chunks of env.ChunkBytes cut into buffers from
// chunkPool, and returns its accumulator and feed-side Stats. It counts
// what is read rather than Stat a file: a FIFO or a device has no size.
func runReader(ctx context.Context, env *pipeline.Env, r io.Reader, path string) (pipeline.Accumulator, Stats, error) {
	out, n, mrst, err := pipeline.RunReader(ctx, env, r, &chunkPool)
	if err != nil {
		return nil, Stats{}, chunkedErr(path, err)
	}
	return out, feedStats(n, mrst), nil
}

// chunkedErr words the error of a chunked run over path (empty for a
// stream): a feed failure becomes a *FeedError, and a decode error
// names the file it came from.
func chunkedErr(path string, err error) error {
	var fe *pipeline.FeedError
	if errors.As(err, &fe) {
		return fmt.Errorf("jsoninference: %w", &FeedError{Path: path, Err: fe.Err})
	}
	if path != "" {
		return fmt.Errorf("jsoninference: %s: %w", path, err)
	}
	return fmt.Errorf("jsoninference: %w", err)
}

// filesSource implements FromFile and FromFiles: each file feeds the
// chunked pipeline through a bounded-memory line partitioner.
type filesSource struct {
	paths []string
}

func (s filesSource) run(ctx context.Context, env *pipeline.Env) (pipeline.Accumulator, Stats, error) {
	// One cover spans all files, and per-file accumulators merge
	// exactly like chunks of one file: cross-file distinct counts are
	// exact and the cross-file fusion runs under the run's policy.
	var merged pipeline.Accumulator
	var feed Stats
	for _, path := range s.paths {
		out, pst, err := runFilePipeline(ctx, env, path)
		if err != nil {
			return nil, Stats{}, err
		}
		merged = pipeline.Combine(merged, out)
		feed.Bytes += pst.Bytes
		feed.Retries += pst.Retries
		feed.QuarantinedChunks += pst.QuarantinedChunks
	}
	return merged, feed, nil
}

// runFilePipeline feeds one file through the chunked pipeline and
// returns its accumulator and feed-side Stats. Failures to open or read
// the file surface as *FeedError; decode failures do not.
func runFilePipeline(ctx context.Context, env *pipeline.Env, path string) (pipeline.Accumulator, Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("jsoninference: %w", &FeedError{Path: path, Err: err})
	}
	//lint:ignore droppederr the file is only read; a close error cannot lose data
	defer f.Close()
	return runReader(ctx, env, f, path)
}
