// Command jsoninfer infers a schema from JSON data.
//
// Usage:
//
//	jsoninfer [flags] [file ...]
//
// With no files, jsoninfer reads from standard input. Inputs hold one or
// more whitespace-separated JSON values (NDJSON works). Multiple files
// are treated as partitions: inferred independently and fused, which by
// associativity equals inferring the concatenation. With -stream they
// are read in order as one stream.
//
// Flags:
//
//	-format      output format: type (default), indent, jsonschema, codec,
//	             enrich (the per-path enrichment report; requires -enrich)
//	-stream      constant-memory streaming mode: the input is cut into
//	             64 KiB chunks as it is read, with no distinct type
//	             statistics; -retries and -on-error apply per chunk
//	-workers     map-phase parallelism (default: number of CPUs)
//	-retries     per-chunk retry budget for transient failures
//	-on-error    fail (default) aborts on a chunk that exhausts its
//	             retries; skip quarantines it and completes without its
//	             records (reported on stderr)
//	-stats       print dataset statistics to stderr
//	-tagged      infer tagged unions: records discriminated by a string
//	             field ("type", "event", "kind") or by a single
//	             variant-named wrapper field fuse into one record type
//	             per observed tag (docs/UNIONS.md) instead of one record
//	             with every field optional; more than 16 tags collapse
//	             the union back to that record
//	-union-keys  comma-separated discriminator field names probed by
//	             -tagged, in priority order (default type,event,kind)
//	-enrich      enrichment monoids computed alongside inference in the
//	             same pass (comma list or "all"; docs/ENRICHMENT.md).
//	             jsonschema output gains annotations; the structural
//	             schema and statistics are unchanged.
//	-debug-addr  serve /debug/vars (expvar, including live pipeline
//	             metrics as jsoninfer_metrics) and /debug/pprof on this
//	             address while the run is in flight
//
// Interrupting the process (SIGINT) cancels the pipeline promptly and
// cleanly between chunks.
//
// Every mode — files, stdin, streaming — runs through the one engine
// in internal/pipeline (docs/ARCHITECTURE.md); the flags above only
// select the feed and the fusion policy.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"

	jsi "repro"
	"repro/internal/debugserver"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "jsoninfer:", err)
		os.Exit(1)
	}
}

// currentCollector backs the process-wide jsoninfer_metrics expvar
// variable (published through internal/debugserver, whose indirection
// makes republishing across runs safe): /debug/vars reads whichever
// collector the most recent run installed.
var currentCollector atomic.Pointer[jsi.Collector]

// startDebug serves expvar and pprof on addr until the returned stop
// function is called. The actual listening address (useful with ":0")
// is announced on stderr.
func startDebug(addr string, c *jsi.Collector, stderr io.Writer) (func(), error) {
	currentCollector.Store(c)
	debugserver.Publish("jsoninfer_metrics", func() any {
		if c := currentCollector.Load(); c != nil {
			return c.Metrics()
		}
		return nil
	})
	srv, err := debugserver.Start(addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "debug server listening on %s\n", srv.URL())
	return func() { _ = srv.Close() }, nil
}

// splitKeys parses the -union-keys comma list, trimming blanks so
// "type, event" works.
func splitKeys(s string) []string {
	var keys []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}
	return keys
}

func run(ctx context.Context, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("jsoninfer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	format := fs.String("format", "type", "output format: type, indent, jsonschema, codec")
	stream := fs.Bool("stream", false, "constant-memory streaming mode")
	workers := fs.Int("workers", 0, "map-phase parallelism (0 = all CPUs)")
	showStats := fs.Bool("stats", false, "print dataset statistics to stderr")
	profileFlag := fs.Bool("profile", false, "print a statistics-annotated schema instead of a plain one")
	positional := fs.Bool("positional", false, "preserve fixed-length arrays positionally (tuple types)")
	expand := fs.String("expand", "", "expand a path expression (e.g. $.user.*) against the inferred schema")
	sample := fs.Int64("sample", -1, "emit an example value conforming to the schema, generated with this seed")
	abstract := fs.Int("abstract", 0, "abstract dictionary-like records with at least this many keys into {*: T} (0 = off)")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof on this address (e.g. localhost:6060) during the run")
	tagged := fs.Bool("tagged", false, "infer tagged unions from discriminator fields and single-field wrappers (docs/UNIONS.md)")
	unionKeys := fs.String("union-keys", "", "comma-separated discriminator field names for -tagged, in priority order (default type,event,kind)")
	retries := fs.Int("retries", 0, "per-chunk retry budget for transient failures (0 = no retry)")
	onError := fs.String("on-error", "fail", "chunk failure policy once retries are exhausted: fail or skip")
	enrichNames := fs.String("enrich", "", "enrichment monoids computed alongside inference (comma list: ranges,hll,bloom,formats,lengths,numprec,counts; or \"all\")")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var errPolicy jsi.ErrorPolicy
	switch *onError {
	case "fail":
		errPolicy = jsi.OnErrorFail
	case "skip":
		errPolicy = jsi.OnErrorSkip
	default:
		return fmt.Errorf("unknown -on-error %q (want fail or skip)", *onError)
	}
	opts := jsi.Options{
		Workers:             *workers,
		PreserveTupleArrays: *positional,
		Retries:             *retries,
		OnError:             errPolicy,
		TaggedUnions:        *tagged,
	}
	if *unionKeys != "" {
		if !*tagged {
			return fmt.Errorf("-union-keys requires -tagged")
		}
		opts.UnionKeys = splitKeys(*unionKeys)
	}
	if *enrichNames != "" {
		opts.Enrich = []string{*enrichNames}
	}
	if *format == "enrich" && *enrichNames == "" {
		return fmt.Errorf("-format enrich requires -enrich")
	}
	if *debugAddr != "" {
		opts.Collector = jsi.NewCollector()
		stop, err := startDebug(*debugAddr, opts.Collector, stderr)
		if err != nil {
			return err
		}
		defer stop()
	}

	if *profileFlag {
		src := jsi.FromReader(stdin)
		if fs.NArg() > 0 {
			src = jsi.FromFiles(fs.Args()...)
		}
		p, _, perr := jsi.InferProfile(ctx, src, opts)
		if perr != nil {
			return perr
		}
		fmt.Fprint(stdout, p.String())
		return nil
	}
	var (
		schema *jsi.Schema
		stats  jsi.Stats
		err    error
	)
	switch {
	case fs.NArg() == 0 && *stream:
		schema, stats, err = jsi.Infer(ctx, jsi.FromReader(stdin), opts)
	case fs.NArg() == 0:
		data, rerr := io.ReadAll(stdin)
		if rerr != nil {
			return rerr
		}
		schema, stats, err = jsi.Infer(ctx, jsi.FromBytes(data), opts)
	case *stream:
		files := &fileStream{paths: fs.Args()}
		defer files.Close() // a failed run can stop mid-file
		schema, stats, err = jsi.Infer(ctx, jsi.FromReader(files), opts)
		stats.Bytes = files.n
	default:
		// Files are partitions of one dataset: each runs through the
		// bounded-memory chunked pipeline and the per-file schemas fuse,
		// so arbitrarily large inputs work.
		schema, stats, err = jsi.Infer(ctx, jsi.FromFiles(fs.Args()...), opts)
	}
	if err != nil {
		return err
	}
	if stats.QuarantinedChunks > 0 {
		fmt.Fprintf(stderr, "warning: %d chunk(s) quarantined after exhausting retries; the schema excludes their records\n",
			stats.QuarantinedChunks)
	}

	if *abstract > 0 {
		schema = schema.AbstractKeys(*abstract)
	}

	if *showStats {
		faults := ""
		if stats.Retries > 0 || stats.QuarantinedChunks > 0 {
			faults = fmt.Sprintf(" retries=%d quarantined-chunks=%d", stats.Retries, stats.QuarantinedChunks)
		}
		fmt.Fprintf(stderr, "records=%d bytes=%d distinct-types=%d type-sizes=%d..%d avg=%.1f schema-size=%d%s\n",
			stats.Records, stats.Bytes, stats.DistinctTypes,
			stats.MinTypeSize, stats.MaxTypeSize, stats.AvgTypeSize, schema.Size(), faults)
	}

	if *sample >= 0 {
		out, ok := schema.Sample(*sample)
		if !ok {
			return fmt.Errorf("the schema admits no values")
		}
		return writeLine(stdout, out)
	}

	if *expand != "" {
		matches, err := schema.ExpandPath(*expand)
		if err != nil {
			return err
		}
		if len(matches) == 0 {
			fmt.Fprintf(stdout, "no conforming value can contain %s\n", *expand)
			return nil
		}
		for _, m := range matches {
			miss := ""
			if m.CanMiss {
				miss = "  (may be absent)"
			}
			fmt.Fprintf(stdout, "%s : %s%s\n", m.Path, m.Type, miss)
		}
		return nil
	}

	switch *format {
	case "type":
		fmt.Fprintln(stdout, schema.String())
	case "indent":
		fmt.Fprintln(stdout, schema.Indent())
	case "jsonschema":
		out, err := schema.JSONSchema()
		if err != nil {
			return err
		}
		return writeLine(stdout, out)
	case "codec":
		out, err := schema.MarshalJSON()
		if err != nil {
			return err
		}
		return writeLine(stdout, out)
	case "enrich":
		out, err := schema.EnrichmentJSON()
		if err != nil {
			return err
		}
		return writeLine(stdout, out)
	default:
		return fmt.Errorf("unknown format %q (want type, indent, jsonschema, codec, or enrich)", *format)
	}
	return nil
}

// fileStream reads the named files in order as one stream, opening
// each only when the previous one is exhausted and closing it at its
// EOF. A newline separates consecutive files, so a value that ends one
// file cannot run into the first value of the next ("1" then "2" stays
// two values); n counts the file bytes alone.
type fileStream struct {
	paths []string
	f     *os.File
	sep   bool
	n     int64
}

func (s *fileStream) Read(p []byte) (int, error) {
	for {
		if s.sep && len(p) > 0 {
			s.sep = false
			p[0] = '\n'
			return 1, nil
		}
		if s.f == nil {
			if len(s.paths) == 0 {
				return 0, io.EOF
			}
			f, err := os.Open(s.paths[0])
			if err != nil {
				return 0, err
			}
			s.f = f
		}
		n, err := s.f.Read(p)
		s.n += int64(n)
		if err != io.EOF {
			return n, err
		}
		if err := s.Close(); err != nil {
			return n, err
		}
		s.paths = s.paths[1:]
		s.sep = len(s.paths) > 0
		if n > 0 {
			return n, nil
		}
	}
}

// Close closes the file being read, if any.
func (s *fileStream) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	if err != nil {
		return fmt.Errorf("%s: %w", s.paths[0], err)
	}
	return nil
}

// writeLine writes a rendered document and then a newline, so the
// document is neither copied into a string nor grown to append one.
func writeLine(w io.Writer, doc []byte) error {
	if _, err := w.Write(doc); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}
