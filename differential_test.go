package jsoninference_test

// Differential oracle: the parallel chunked pipeline must be
// byte-identical to a sequential single-worker run. The paper's
// distribution strategy stands on the fusion laws (Theorems 5.4 and
// 5.5) — associativity and commutativity make chunking, scheduling and
// worker count invisible in the result — so any divergence here is a
// bug in the engine or in fusion, caught by comparing canonical schema
// bytes rather than trusting either side.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/stats"
	"repro/internal/types"
)

// canonical renders a schema to its canonical codec bytes.
func canonical(t *testing.T, s *jsi.Schema) []byte {
	t.Helper()
	b, err := s.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	return b
}

// TestDifferentialParallelVsSequential compares, per dataset, a
// 1-worker in-memory reference run against parallel in-memory runs,
// the stream at its defaults, and the bounded-memory file pipeline and
// the stream with a deliberately tiny chunk size (many more chunks than
// workers).
func TestDifferentialParallelVsSequential(t *testing.T) {
	dir := t.TempDir()
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 300, 59)

		refSchema, refStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: sequential reference: %v", name, err)
		}
		ref := canonical(t, refSchema)

		check := func(label string, s *jsi.Schema, st jsi.Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %s: %v", name, label, err)
			}
			if got := canonical(t, s); !bytes.Equal(got, ref) {
				t.Errorf("%s: %s schema diverged\n got: %s\nwant: %s", name, label, got, ref)
			}
			if st.Records != refStats.Records {
				t.Errorf("%s: %s Records = %d, want %d", name, label, st.Records, refStats.Records)
			}
		}

		for _, workers := range []int{2, 8} {
			s, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: workers})
			check(fmt.Sprintf("parallel %d", workers), s, st, err)
		}

		s, st, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), jsi.Options{})
		check("streaming", s, st, err)

		path := filepath.Join(dir, name+".ndjson")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		s, st, err = jsi.Infer(context.Background(), jsi.FromFile(path), jsi.Options{Workers: 8, ChunkBytes: 1 << 10})
		check("file pipeline", s, st, err)

		s, st, err = jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), jsi.Options{Workers: 8, ChunkBytes: 1 << 10})
		check("chunked stream", s, st, err)
	}
}

// TestDifferentialTaggedUnions re-runs the parallel-vs-sequential
// oracle with the tagged-union policy on. The Variants merge is part of
// the fusion monoid, so the same guarantee must hold: worker count and
// source (in-memory, streaming, file pipeline) are invisible in the
// canonical schema bytes. The test also requires that
// at least one dataset actually infers a variants node, so it cannot
// pass vacuously with the policy silently disabled.
func TestDifferentialTaggedUnions(t *testing.T) {
	dir := t.TempDir()
	sawVariants := false
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 300, 59)

		opts := func(extra jsi.Options) jsi.Options {
			extra.TaggedUnions = true
			return extra
		}
		refSchema, refStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts(jsi.Options{Workers: 1}))
		if err != nil {
			t.Fatalf("%s: tagged sequential reference: %v", name, err)
		}
		ref := canonical(t, refSchema)
		if bytes.Contains(ref, []byte(`"variants"`)) {
			sawVariants = true
		}

		check := func(label string, s *jsi.Schema, st jsi.Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: tagged %s: %v", name, label, err)
			}
			if got := canonical(t, s); !bytes.Equal(got, ref) {
				t.Errorf("%s: tagged %s schema diverged\n got: %s\nwant: %s", name, label, got, ref)
			}
			if st.Records != refStats.Records {
				t.Errorf("%s: tagged %s Records = %d, want %d", name, label, st.Records, refStats.Records)
			}
		}

		for _, workers := range []int{2, 8} {
			s, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts(jsi.Options{Workers: workers}))
			check(fmt.Sprintf("parallel %d", workers), s, st, err)
		}

		s, st, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), opts(jsi.Options{}))
		check("streaming", s, st, err)

		path := filepath.Join(dir, name+".ndjson")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		s, st, err = jsi.Infer(context.Background(), jsi.FromFile(path), opts(jsi.Options{Workers: 8, ChunkBytes: 1 << 10}))
		check("file pipeline", s, st, err)

		s, st, err = jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), opts(jsi.Options{Workers: 8, ChunkBytes: 1 << 10}))
		check("chunked stream", s, st, err)

		// Several files merge their accumulators before the one Finalize,
		// like the chunks of one file, so the tagged collapse decisions
		// see the whole run.
		lines := bytes.SplitAfter(data, []byte("\n"))
		var parts []string
		for i := 0; i < 3; i++ {
			part := filepath.Join(dir, fmt.Sprintf("%s.%d.ndjson", name, i))
			if err := os.WriteFile(part, bytes.Join(lines[i*len(lines)/3:(i+1)*len(lines)/3], nil), 0o600); err != nil {
				t.Fatal(err)
			}
			parts = append(parts, part)
		}
		s, st, err = jsi.Infer(context.Background(), jsi.FromFiles(parts...), opts(jsi.Options{Workers: 2, ChunkBytes: 1 << 10}))
		check("files", s, st, err)

		// The JSON Schema export of a tagged run must also be stable
		// across execution strategies (oneOf branch order is canonical).
		refJS, err := refSchema.JSONSchema()
		if err != nil {
			t.Fatalf("%s: JSONSchema: %v", name, err)
		}
		parSchema, _, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts(jsi.Options{Workers: 8}))
		if err != nil {
			t.Fatalf("%s: tagged parallel for JSONSchema: %v", name, err)
		}
		parJS, err := parSchema.JSONSchema()
		if err != nil {
			t.Fatalf("%s: JSONSchema parallel: %v", name, err)
		}
		if !bytes.Equal(parJS, refJS) {
			t.Errorf("%s: tagged JSON Schema export diverged\n got: %s\nwant: %s", name, parJS, refJS)
		}
	}
	if !sawVariants {
		t.Error("no dataset inferred a variants node: the tagged policy never fired")
	}
}

// TestDifferentialEnrichmentTransparent pins the two enrichment
// contracts on every dataset generator. First, enrichment is purely
// additive: with Options.Enrich on, the structural schema bytes and
// the full Stats struct are identical to a run without it. Second,
// enrichment is deterministic: the annotated JSON Schema and the
// per-path report are byte-identical whatever the worker count, chunk
// size, or source (in-memory, streaming, file pipeline), because the
// enrichment lattice merges under the same commutative-monoid laws as
// fusion.
func TestDifferentialEnrichmentTransparent(t *testing.T) {
	dir := t.TempDir()
	enrich := []string{"all"}
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 300, 59)

		plainSchema, plainStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: plain reference: %v", name, err)
		}
		refSchema, refStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data),
			jsi.Options{Workers: 1, Enrich: enrich})
		if err != nil {
			t.Fatalf("%s: enriched reference: %v", name, err)
		}

		// Additive: same structural bytes, same stats, field for field.
		if got, want := canonical(t, refSchema), canonical(t, plainSchema); !bytes.Equal(got, want) {
			t.Errorf("%s: enrichment changed the structural schema\n got: %s\nwant: %s", name, got, want)
		}
		if refStats != plainStats {
			t.Errorf("%s: enrichment changed Stats\n got: %+v\nwant: %+v", name, refStats, plainStats)
		}
		if !refSchema.Enriched() {
			t.Fatalf("%s: enriched run reports Enriched() = false", name)
		}

		wantJS, err := refSchema.JSONSchema()
		if err != nil {
			t.Fatal(err)
		}
		wantReport, err := refSchema.EnrichmentJSON()
		if err != nil {
			t.Fatal(err)
		}

		check := func(label string, s *jsi.Schema, st jsi.Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %s: %v", name, label, err)
			}
			js, jerr := s.JSONSchema()
			if jerr != nil {
				t.Fatal(jerr)
			}
			if !bytes.Equal(js, wantJS) {
				t.Errorf("%s: %s annotated schema diverged\n got: %s\nwant: %s", name, label, js, wantJS)
			}
			rep, rerr := s.EnrichmentJSON()
			if rerr != nil {
				t.Fatal(rerr)
			}
			if !bytes.Equal(rep, wantReport) {
				t.Errorf("%s: %s enrichment report diverged\n got: %s\nwant: %s", name, label, rep, wantReport)
			}
			if st.Records != refStats.Records {
				t.Errorf("%s: %s Records = %d, want %d", name, label, st.Records, refStats.Records)
			}
		}

		for _, workers := range []int{2, 8} {
			s, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data),
				jsi.Options{Workers: workers, Enrich: enrich})
			check(fmt.Sprintf("parallel %d", workers), s, st, err)
		}

		s, st, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)),
			jsi.Options{Enrich: enrich})
		check("streaming", s, st, err)

		path := filepath.Join(dir, name+".ndjson")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		s, st, err = jsi.Infer(context.Background(), jsi.FromFile(path),
			jsi.Options{Workers: 8, ChunkBytes: 1 << 10, Enrich: enrich})
		check("file pipeline", s, st, err)

		s, st, err = jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)),
			jsi.Options{Workers: 8, ChunkBytes: 1 << 10, Enrich: enrich})
		check("chunked stream", s, st, err)
	}
}

// typeEveryRecord is the reference that types every record of data
// outside the engine: infer.InferAll, a stats.Summary over the inferred
// types and a fold of their simplified forms under the paper's fusion.
// It returns the finalized schema's codec bytes and the type-level
// Stats.
func typeEveryRecord(t *testing.T, data []byte) ([]byte, jsi.Stats) {
	t.Helper()
	ts, err := infer.InferAll(data)
	if err != nil {
		t.Fatal(err)
	}
	var (
		fz  fusion.Options
		sum stats.Summary
	)
	fused := types.Type(types.Empty)
	for _, ty := range ts {
		sum.Add(ty)
		fused = fz.Fuse(fused, fz.Simplify(ty))
	}
	b, err := types.MarshalJSON(fz.Finalize(fused))
	if err != nil {
		t.Fatal(err)
	}
	return b, jsi.Stats{
		Records:       sum.Count(),
		Bytes:         int64(len(data)),
		DistinctTypes: sum.Distinct(),
		MinTypeSize:   sum.MinSize(),
		MaxTypeSize:   sum.MaxSize(),
		AvgTypeSize:   sum.AvgSize(),
	}
}

// TestDifferentialDedupStatsAndMetrics pins the absorbing path's
// contract beyond schema bytes. At Workers 1 the schema and the full
// Stats struct, DistinctTypes included, match both the reference that
// types every record outside the engine and the run with no cover
// (InferPlain); the metrics snapshots match the latter's once timings
// and the absorption metrics are stripped — infer_records,
// infer_chunks, everything else must not move, whichever records were
// absorbed. The absorption metrics themselves are deterministic at one
// worker without faults: two runs record the same full snapshot.
func TestDifferentialDedupStatsAndMetrics(t *testing.T) {
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 300, 101)

		type inferFunc func(context.Context, jsi.Source, jsi.Options) (*jsi.Schema, jsi.Stats, error)
		run := func(label string, infer inferFunc) (*jsi.Schema, jsi.Stats, jsi.Metrics) {
			c := jsi.NewCollector()
			s, st, err := infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 1, Collector: c})
			if err != nil {
				t.Fatalf("%s (%s): %v", name, label, err)
			}
			return s, st, c.Metrics()
		}
		refSchema, refStats, refMetrics := run("plain", jsi.InferPlain)
		gotSchema, gotStats, gotMetrics := run("absorbing", jsi.Infer)
		_, _, againMetrics := run("absorbing again", jsi.Infer)

		wantBytes, wantStats := typeEveryRecord(t, data)
		for _, c := range []struct {
			label string
			s     *jsi.Schema
			st    jsi.Stats
		}{{"plain", refSchema, refStats}, {"absorbing", gotSchema, gotStats}} {
			if !bytes.Equal(canonical(t, c.s), wantBytes) {
				t.Errorf("%s: %s schema diverged from the reference", name, c.label)
			}
			if c.st != wantStats {
				t.Errorf("%s: %s stats diverged\n got: %+v\nwant: %+v", name, c.label, c.st, wantStats)
			}
		}

		want, err := refMetrics.WithoutTimings().WithoutCache().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		got, err := gotMetrics.WithoutTimings().WithoutCache().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: metrics beyond absorption diverged\n got: %s\nwant: %s", name, got, want)
		}
		got, err = gotMetrics.WithoutTimings().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		again, err := againMetrics.WithoutTimings().MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, again) {
			t.Errorf("%s: one-worker metrics differ between runs\n got: %s\nthen: %s", name, got, again)
		}

		// Only the run with a cover absorbs, and it absorbs most records
		// of every generator but the one whose records are all distinct.
		if n, ok := refMetrics.Counters["infer_absorbed_records"]; ok {
			t.Errorf("%s: the run with no cover absorbed %d records", name, n)
		}
		if n := gotMetrics.Counters["infer_absorbed_records"]; name != "wikidata" && n < 150 {
			t.Errorf("%s: absorbed %d of 300 records, want most", name, n)
		}
	}
}

// TestDifferentialDedupExactDistinctAcrossSources: every chunked Source
// reports the SAME exact DistinctTypes — in memory, chunked stream,
// single file and several files, where one cover and the distinct-type
// hash sets span the files — while FromReader, which keeps no
// distinct-type set, reports zero.
func TestDifferentialDedupExactDistinctAcrossSources(t *testing.T) {
	dir := t.TempDir()
	g, err := dataset.New("github")
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.NDJSON(g, 400, 7)

	_, want, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.DistinctTypes <= 0 {
		t.Fatalf("reference distinct count not positive: %+v", want)
	}

	_, st, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.DistinctTypes != 0 {
		t.Errorf("streaming DistinctTypes = %d, want 0", st.DistinctTypes)
	}

	_, st, err = jsi.Infer(context.Background(), jsi.FromChunkedReader(bytes.NewReader(data)), jsi.Options{Workers: 4, ChunkBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if st.DistinctTypes != want.DistinctTypes {
		t.Errorf("chunked stream DistinctTypes = %d, want %d", st.DistinctTypes, want.DistinctTypes)
	}

	// Split the buffer across two files that share shapes: the exact
	// global count, not a per-file bound.
	lines := bytes.SplitAfter(data, []byte("\n"))
	mid := len(lines) / 2
	paths := []string{filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.ndjson")}
	if err := os.WriteFile(paths[0], bytes.Join(lines[:mid], nil), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(paths[1], bytes.Join(lines[mid:], nil), 0o600); err != nil {
		t.Fatal(err)
	}
	_, st, err = jsi.Infer(context.Background(), jsi.FromFiles(paths...), jsi.Options{Workers: 4, ChunkBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	want.Bytes = st.Bytes
	if st != want {
		t.Errorf("multi-file Stats = %+v, want %+v", st, want)
	}
}

// TestDifferentialDedupAutoDeterminism pins absorption's core promise
// at real sizes, on records that are all distinct (wikidata, mostly
// typed) and on repetitive ones (twitter, nearly all absorbed): the
// result is byte-identical to the fold with no cover, which types every
// record, across 1/4/8 workers and the bytes, file and streaming
// sources. Which records a chunk absorbs depends on which chunks were
// mapped before it, and so on scheduling; this test is the proof the
// *result* does not.
func TestDifferentialDedupAutoDeterminism(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wikidata", "twitter"} {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 1500, 7)
		path := filepath.Join(dir, name+".ndjson")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}

		refSchema, refStats, err := jsi.InferPlain(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s: plain reference: %v", name, err)
		}
		ref := canonical(t, refSchema)

		check := func(label string, s *jsi.Schema, st jsi.Stats, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %s: %v", name, label, err)
			}
			if got := canonical(t, s); !bytes.Equal(got, ref) {
				t.Errorf("%s: %s schema diverged\n got: %s\nwant: %s", name, label, got, ref)
			}
			if st != refStats {
				t.Errorf("%s: %s Stats = %+v, want %+v", name, label, st, refStats)
			}
		}

		for _, workers := range []int{1, 4, 8} {
			s, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: workers})
			check(fmt.Sprintf("bytes %dw", workers), s, st, err)

			s, st, err = jsi.Infer(context.Background(), jsi.FromFile(path), jsi.Options{Workers: workers, ChunkBytes: 8 << 10})
			check(fmt.Sprintf("file %dw", workers), s, st, err)
		}
		s, st, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), jsi.Options{})
		st.DistinctTypes = refStats.DistinctTypes // the stream keeps no distinct-type set
		check("streaming", s, st, err)
	}
}

// TestDifferentialDumpLayout pins the contract a top-level array of
// records rests on. Laid out as one array, one record per line (the
// way Wikidata publishes its dump), records more numerous than
// fusion.MaxTupleLen have the schema of the same records as NDJSON
// wrapped as [F*], in codec bytes, on every generator, policy,
// streaming Source and worker count. Stats.Records, which counts
// top-level values, reports the one array.
func TestDifferentialDumpLayout(t *testing.T) {
	dir := t.TempDir()
	policies := []struct {
		name string
		opts jsi.Options
	}{
		{"paper", jsi.Options{}},
		{"tuples", jsi.Options{PreserveTupleArrays: true}},
		{"tagged", jsi.Options{TaggedUnions: true}},
		{"tagged+tuples", jsi.Options{TaggedUnions: true, PreserveTupleArrays: true}},
	}
	sources := []struct {
		name string
		src  func(data []byte, path string) jsi.Source
	}{
		{"bytes", func(data []byte, _ string) jsi.Source { return jsi.FromBytes(data) }},
		{"reader", func(data []byte, _ string) jsi.Source { return jsi.FromReader(bytes.NewReader(data)) }},
		{"file", func(_ []byte, path string) jsi.Source { return jsi.FromFile(path) }},
		{"chunked reader", func(data []byte, _ string) jsi.Source { return jsi.FromChunkedReader(bytes.NewReader(data)) }},
	}
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := dataset.NDJSON(g, 60, 17)
		dump := dumpLayout(lines)
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, dump, 0o600); err != nil {
			t.Fatal(err)
		}
		for _, p := range policies {
			s, _, err := jsi.Infer(context.Background(), jsi.FromBytes(lines), p.opts)
			if err != nil {
				t.Fatalf("%s/%s: NDJSON: %v", name, p.name, err)
			}
			f, err := types.UnmarshalJSON(canonical(t, s))
			if err != nil {
				t.Fatal(err)
			}
			want, err := types.MarshalJSON(types.MustRepeated(f))
			if err != nil {
				t.Fatal(err)
			}
			for _, src := range sources {
				for _, workers := range []int{1, 2} {
					opts := p.opts
					opts.Workers = workers
					if workers > 1 {
						opts.ChunkBytes = 1 << 10 // the array spans many chunks
					}
					s, st, err := jsi.Infer(context.Background(), src.src(dump, path), opts)
					label := fmt.Sprintf("%s/%s/%s/%d workers", name, p.name, src.name, workers)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got := canonical(t, s); !bytes.Equal(got, want) {
						t.Errorf("%s: dump layout schema\n got: %s\nwant: %s", label, got, want)
					}
					if st.Records != 1 {
						t.Errorf("%s: Records = %d, want 1", label, st.Records)
					}
				}
			}
		}
	}
}
