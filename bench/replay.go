package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	jsi "repro"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/intern"
	"repro/internal/jsonschema"
	"repro/internal/jsontext"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/types"
	"repro/internal/value"
)

// A replayInput is the input of one op.
type replayInput struct {
	// data holds the op's records; path names the file the op reads
	// (kindFile and kindStream).
	data []byte
	path string
	// reads are the records the read probe validates against the op's
	// schema.
	reads [][]byte
}

// inferOp is one op through the public API: Infer over the kind's
// Source, then, with export set, the JSON Schema export.
func inferOp(ctx context.Context, kind sourceKind, in replayInput, opts jsi.Options, export bool) (s *jsi.Schema, st jsi.Stats, js []byte, err error) {
	var src jsi.Source
	switch kind {
	case kindFile:
		src = jsi.FromFile(in.path)
	case kindBytes:
		src = jsi.FromBytes(in.data)
	case kindStream:
		f, err := os.Open(in.path)
		if err != nil {
			return nil, st, nil, err
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		src = jsi.FromReader(f)
	case kindChunked:
		src = jsi.FromChunkedReader(bytes.NewReader(in.data))
	}
	s, st, err = jsi.Infer(ctx, src, opts)
	if err != nil || !export {
		return s, st, nil, err
	}
	js, err = s.JSONSchema()
	return s, st, js, err
}

// A replayer re-runs ops single-threaded through the layer functions
// the library composes, wrapping each call in a span. For the default
// Options (plain payload, paper fusion, no enrichment) it makes the
// calls the pipeline's map stage makes, and calls the pipeline's own
// Accumulator merges and fold, in the order a single worker makes
// them, so the layers' self times add up to a single-worker Infer.
type replayer struct {
	tr   *tracer
	kind sourceKind
	// export is set when the workload's op ends with a JSON Schema
	// export.
	export bool
	fz     fusion.Options
	// samples collects one value per replayed op for the metrics that
	// are not span self times.
	samples map[string][]float64
}

// opResult is what a traced op produced.
type opResult struct {
	fused   types.Type
	records int64
	// merges counts accumulator merges; an op without any (the stream
	// fold, a one-chunk ingest) gets its merge layer from the probe.
	merges int
	// mirrored holds the types the replay's copy of the map stage
	// produced: one per chunk, or the stream's whole fold.
	mirrored []types.Type
}

// prepared holds what the library's own map stage made of an op's
// input, built untraced before the op: one Accumulator per chunk (one
// for the whole stream) for the op to merge and fold, and the Fold of
// each, which the replay's copy of the map stage must reproduce.
type prepared struct {
	accs []pipeline.Accumulator
	want []types.Type
}

// env is the pipeline environment of the default Options on one worker.
func (r *replayer) env() *pipeline.Env { return &pipeline.Env{Fusion: r.fz, Workers: 1} }

// prepare runs the library's map stage over the op's input: per chunk
// for the chunked kinds, record by record for the stream.
func (r *replayer) prepare(ctx context.Context, in replayInput) (*prepared, error) {
	if r.kind == kindStream {
		acc, _, err := pipeline.RunStream(ctx, r.env(), bytes.NewReader(in.data))
		if err != nil {
			return nil, err
		}
		return &prepared{accs: []pipeline.Accumulator{acc}, want: []types.Type{pipeline.Fold(acc).Fused}}, nil
	}
	chunks, release, err := r.chunk(in)
	if err != nil {
		return nil, err
	}
	p, err := r.prepareChunks(ctx, chunks)
	if release != nil {
		for _, c := range chunks {
			release(c)
		}
	}
	return p, err
}

// prepareChunks has the library's map stage type each chunk into an
// Accumulator of its own.
func (r *replayer) prepareChunks(ctx context.Context, chunks [][]byte) (*prepared, error) {
	p := &prepared{}
	for i := range chunks {
		acc, _, err := pipeline.Run(ctx, r.env(), pipeline.SliceFeed(chunks[i:i+1]))
		if err != nil {
			return nil, err
		}
		p.accs = append(p.accs, acc)
		p.want = append(p.want, pipeline.Fold(acc).Fused)
	}
	return p, nil
}

// check reports whether the replay's copy of the map stage typed the
// input as the library's did.
func (r *replayer) check(res opResult, p *prepared) error {
	if len(res.mirrored) != len(p.want) {
		return fmt.Errorf("the replay cut %d chunks, the library %d", len(res.mirrored), len(p.want))
	}
	for i, t := range res.mirrored {
		if !types.Equal(r.fz.Finalize(t), p.want[i]) {
			return fmt.Errorf("chunk %d: the replay's map stage disagrees with the library's", i)
		}
	}
	return nil
}

func (r *replayer) note(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// replayLayers replays each input as one request: an untraced
// single-worker op as the baseline, the traced op under an "op" root,
// then the layers that op does not exercise (lexing alone, dedup,
// reads, and merge or export where the op has none) under a "probe"
// root over the same records. It returns the per-layer metrics, each
// the median over the inputs.
func replayLayers(ctx context.Context, tr *tracer, kind sourceKind, export bool, inputs []replayInput) (map[string]float64, error) {
	r := &replayer{tr: tr, kind: kind, export: export, samples: make(map[string][]float64)}
	var baseline, traced []float64
	first := tr.req + 1
	for _, in := range inputs {
		// A warm-up replay of the input into a throwaway tracer first:
		// in a child holding the serve workload's heap, the first replay
		// of an input ran a quarter slower than the library's op and
		// than later replays, which would read as tracing overhead.
		warm := *r
		warm.tr = newTracer()
		prep, err := r.prepare(ctx, in)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		if _, err := warm.op(in, prep); err != nil {
			return nil, err
		}
		if prep, err = r.prepare(ctx, in); err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		if _, _, _, err := inferOp(ctx, kind, in, jsi.Options{Workers: 1}, export); err != nil {
			return nil, err
		}
		baseline = append(baseline, ms(time.Since(t0)))

		runtime.GC()
		tr.request()
		root := tr.begin("op")
		res, err := r.op(in, prep)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		if err := r.check(res, prep); err != nil {
			return nil, err
		}
		traced = append(traced, ms(tr.spans[root-1].End-tr.spans[root-1].Start))
		r.note("infer.records", float64(res.records))
		r.note("fusion.fused_size", float64(res.fused.Size()))

		// An op without merges gets its merge layer from the same
		// records cut the way FromBytes cuts them.
		var chunks [][]byte
		var mergePrep *prepared
		if res.merges == 0 {
			chunks = jsontext.SplitLines(in.data, workers*4)
			if mergePrep, err = r.prepareChunks(ctx, chunks); err != nil {
				return nil, err
			}
		}
		probe := tr.begin("probe")
		err = r.probes(in, res, chunks, mergePrep)
		tr.end(probe)
		if err != nil {
			return nil, err
		}
		if err := r.engine(ctx, in); err != nil {
			return nil, err
		}
		if err := r.decodeAllocs(in); err != nil {
			return nil, err
		}
	}

	out := make(map[string]float64)
	for name, xs := range r.samples {
		out[name] = median(xs)
	}
	opSelf, probeSelf := selfByRequest(tr.spans, "op"), selfByRequest(tr.spans, "probe")
	perReq := func(name string) []float64 {
		src := opSelf[name]
		if len(src) == 0 {
			src = probeSelf[name]
		}
		xs := make([]float64, len(inputs))
		for i := range xs {
			xs[i] = ms(src[first+i])
		}
		return xs
	}
	for _, l := range []struct{ span, metric string }{
		{"jsontext.lex", "jsontext.lex_ms"},
		{"jsontext.chunk", "jsontext.chunk_ms"},
		{"intern.dedup_decode", "intern.dedup_decode_ms"},
		{"fusion.simplify", "fusion.simplify_ms"},
		{"fusion.fuse", "fusion.fuse_ms"},
		{"fusion.memo_fuse", "fusion.memo_fuse_ms"},
		{"pipeline.add", "pipeline.add_ms"},
		{"pipeline.merge", "pipeline.merge_ms"},
		{"pipeline.fold", "pipeline.fold_ms"},
		{"jsonschema.export", "jsonschema.export_ms"},
		{"types.codec", "types.codec_ms"},
		{"types.member", "types.member_ms"},
	} {
		out[l.metric] = median(perReq(l.span))
	}
	// The decode span includes the lexing the decoder drives; the lex
	// probe measured that part alone, over the same bytes.
	lex, decode := perReq("jsontext.lex"), perReq("infer.decode")
	mbs := make([]float64, len(inputs))
	for i := range decode {
		decode[i] -= lex[i]
		mbs[i] = float64(len(inputs[i].data)) / 1e6 / (lex[i] / 1e3)
	}
	out["infer.decode_ms"] = median(decode)
	out["jsontext.lex_mb_s"] = median(mbs)

	// Each replay is compared with the baseline op run just before it,
	// so that the host's drift over the replays cancels.
	attributed := make([]float64, len(inputs))
	for _, byReq := range opSelf {
		for i := range attributed {
			attributed[i] += ms(byReq[first+i])
		}
	}
	unattributed, overhead := make([]float64, len(inputs)), make([]float64, len(inputs))
	for i := range inputs {
		unattributed[i] = (1 - attributed[i]/baseline[i]) * 100
		overhead[i] = (traced[i]/baseline[i] - 1) * 100
	}
	out["bench.unattributed_pct"] = median(unattributed)
	out["bench.trace_overhead_pct"] = median(overhead)
	return out, nil
}

// op replays one op under the current span: chunking, then per chunk
// decode, tally, simplify and tree fuse, the merges of the chunks'
// accumulators, the final fold and the export — or, for the stream, the
// per-record left fold, then the fold. p holds the library's
// accumulators of the same input, which the merges and the fold use.
func (r *replayer) op(in replayInput, p *prepared) (opResult, error) {
	var res opResult
	var err error
	if r.kind == kindStream {
		res, err = r.streamFold(in, p.accs[0])
	} else {
		var chunks [][]byte
		var release func([]byte)
		r.tr.timed("jsontext.chunk", func() { chunks, release, err = r.chunk(in) })
		if err != nil {
			return res, err
		}
		res, err = r.chunkFold(chunks, release, p.accs)
	}
	if err != nil || !r.export {
		return res, err
	}
	r.tr.timed("jsonschema.export", func() { _, err = jsonschema.Marshal(res.fused) })
	return res, err
}

// chunk cuts the input the way the kind's Source does. release, when
// non-nil, returns a pooled chunk buffer once the chunk is decoded.
func (r *replayer) chunk(in replayInput) (chunks [][]byte, release func([]byte), err error) {
	if r.kind == kindBytes {
		return jsontext.SplitLines(in.data, workers*4), nil, nil
	}
	collect := func(c []byte) error {
		chunks = append(chunks, c)
		return nil
	}
	pool := &jsontext.ChunkPool{}
	if r.kind == kindChunked {
		err = jsontext.ChunkLinesPooled(bytes.NewReader(in.data), 0, pool, collect)
		return chunks, pool.Put, err
	}
	f, err := os.Open(in.path)
	if err != nil {
		return nil, nil, err
	}
	err = jsontext.ChunkLinesPooled(f, 0, pool, collect)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return chunks, pool.Put, err
}

// chunkFold replays the chunked path. Per chunk it runs a copy of the
// plain map stage, pipeline's (*Env).mapChunk — decode, the summary
// tally, Simplify, the pairwise reduction — split into a span per
// layer; a change to that stage must be made here too, which check
// enforces. The merges and the fold are the library's own
// Accumulator.Merge and Fold, over accs: the library's accumulators of
// the same chunks.
func (r *replayer) chunkFold(chunks [][]byte, release func([]byte), accs []pipeline.Accumulator) (opResult, error) {
	var res opResult
	if len(chunks) != len(accs) || len(accs) == 0 {
		return res, fmt.Errorf("the replay cut %d chunks, the library %d", len(chunks), len(accs))
	}
	for _, c := range chunks {
		var ts []types.Type
		var err error
		r.tr.timed("infer.decode", func() { ts, err = infer.InferAllWith(c, nil, nil) })
		if release != nil {
			release(c)
		}
		if err != nil {
			return res, err
		}
		sum := &stats.Summary{}
		r.tr.timed("pipeline.add", func() {
			for _, t := range ts {
				sum.Add(t)
			}
		})
		r.tr.timed("fusion.simplify", func() {
			for i, t := range ts {
				ts[i] = r.fz.Simplify(t)
			}
		})
		var cf types.Type
		r.tr.timed("fusion.fuse", func() { cf = treeFuse(ts, r.fz.Fuse) })
		res.mirrored = append(res.mirrored, cf)
	}
	acc := accs[0]
	for _, b := range accs[1:] {
		r.tr.timed("pipeline.merge", func() { acc.Merge(b) })
		res.merges++
	}
	var out pipeline.Result
	r.tr.timed("pipeline.fold", func() { out = acc.Fold() })
	res.fused, res.records = out.Fused, out.Records
	return res, nil
}

// treeFuse reduces simplified types pairwise, level by level: a copy of
// pipeline's unexported treeFuse, the chunk-local reduction of its
// plain map stage. ts is overwritten.
func treeFuse(ts []types.Type, fuse func(a, b types.Type) types.Type) types.Type {
	if len(ts) == 0 {
		return types.Empty
	}
	n := len(ts)
	for n > 1 {
		k := 0
		for i := 0; i+1 < n; i += 2 {
			ts[k] = fuse(ts[i], ts[i+1])
			k++
		}
		if n%2 == 1 {
			ts[k] = ts[n-1]
			k++
		}
		n = k
	}
	return ts[0]
}

// tracedReader spans every Read of the stream it wraps: the file feed
// of the sequential path, nested in the decode that asked for bytes.
type tracedReader struct {
	r  io.Reader
	tr *tracer
}

func (t *tracedReader) Read(p []byte) (int, error) {
	id := t.tr.begin("jsontext.chunk")
	n, err := t.r.Read(p)
	t.tr.end(id)
	return n, err
}

// streamFold replays the sequential path, pipeline.RunStream: decode
// a record, then a copy of the stream accumulator's Add (plainAcc.Add
// in the pipeline: tally, simplify, fuse into the running type) split
// into spans. The fold is the library's Fold of acc, the library's
// accumulator of the same stream.
func (r *replayer) streamFold(in replayInput, acc pipeline.Accumulator) (res opResult, err error) {
	f, err := os.Open(in.path)
	if err != nil {
		return res, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	dec := infer.NewDecoder(&tracedReader{r: f, tr: r.tr}, jsontext.Options{})
	defer dec.Release()
	fused := types.Type(types.Empty)
	var records, sizes int64
	tr := r.tr
	for {
		id := tr.begin("infer.decode")
		t, err := dec.Next()
		tr.end(id)
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, fmt.Errorf("record %d: %w", records+1, err)
		}
		add := tr.begin("pipeline.add")
		records++
		sizes += int64(t.Size())
		id = tr.begin("fusion.simplify")
		s := r.fz.Simplify(t)
		tr.end(id)
		id = tr.begin("fusion.fuse")
		fused = r.fz.Fuse(fused, s)
		tr.end(id)
		tr.end(add)
	}
	var out pipeline.Result
	tr.timed("pipeline.fold", func() { out = acc.Fold() })
	res.fused, res.records, res.mirrored = out.Fused, out.Records, []types.Type{fused}
	return res, nil
}

// probes replays, under the current span, the layers the op itself
// does not exercise, over the op's records, and checks that each path
// agrees with the op's schema. An op without merges passes the chunks
// to replay them over, with their library accumulators.
func (r *replayer) probes(in replayInput, res opResult, mergeChunks [][]byte, mergePrep *prepared) error {
	chunks, release, err := r.probeChunks(in)
	if err != nil {
		return err
	}
	if err := r.lexProbe(in, chunks); err != nil {
		return err
	}
	if err := r.dedupProbe(chunks, res.fused); err != nil {
		return err
	}
	if release != nil {
		for _, c := range chunks {
			release(c)
		}
	}
	if mergePrep != nil {
		again, err := r.chunkFold(mergeChunks, nil, mergePrep.accs)
		if err != nil {
			return err
		}
		if err := r.check(again, mergePrep); err != nil {
			return err
		}
		if !types.Equal(again.fused, res.fused) {
			return fmt.Errorf("chunked replay disagrees with the op's schema")
		}
	}
	var js []byte
	export := func() { js, err = jsonschema.Marshal(res.fused) }
	if r.export {
		export()
	} else {
		r.tr.timed("jsonschema.export", export)
	}
	if err != nil {
		return err
	}
	r.note("jsonschema.bytes", float64(len(js)))
	return r.readProbe(res.fused, in.reads)
}

// probeChunks returns the op's chunks, or the whole input as one chunk
// for the stream, which has none.
func (r *replayer) probeChunks(in replayInput) ([][]byte, func([]byte), error) {
	if r.kind == kindStream {
		return [][]byte{in.data}, nil, nil
	}
	return r.chunk(in)
}

// lexProbe runs the lexer alone over the input, the way the op's
// decoder drives it: straight over each chunk, or through a buffered
// reader for the stream.
func (r *replayer) lexProbe(in replayInput, chunks [][]byte) error {
	tokens := 0
	count := func(l *jsontext.Lexer) error {
		defer l.Release()
		l.RawStrings(true)
		for {
			tok, err := l.Next()
			if err != nil {
				return err
			}
			if tok.Kind == jsontext.TokEOF {
				return nil
			}
			tokens++
		}
	}
	var err error
	if r.kind == kindStream {
		f, oerr := os.Open(in.path)
		if oerr != nil {
			return oerr
		}
		r.tr.timed("jsontext.lex", func() { err = count(jsontext.AcquireLexer(&tracedReader{r: f, tr: r.tr})) })
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	} else {
		for _, c := range chunks {
			r.tr.timed("jsontext.lex", func() { err = count(jsontext.AcquireLexerBytes(c)) })
			if err != nil {
				break
			}
		}
	}
	r.note("jsontext.tokens", float64(tokens))
	return err
}

// dedupProbe types the chunks through a fresh intern table and fuses
// their distinct types through the memo — the map and combine stages
// of Options.Dedup, which the default Options leave off.
func (r *replayer) dedupProbe(chunks [][]byte, want types.Type) error {
	tab := intern.NewTable()
	memo := fusion.NewMemo(r.fz, tab)
	all := intern.NewMultiset()
	fused := types.Type(types.Empty)
	for _, c := range chunks {
		var ms *intern.Multiset
		var err error
		r.tr.timed("intern.dedup_decode", func() { ms, err = infer.DedupAllWith(c, tab, nil, nil) })
		if err != nil {
			return err
		}
		r.tr.timed("fusion.memo_fuse", func() {
			f := types.Type(types.Empty)
			for _, el := range ms.Elems() {
				f = memo.Fuse(f, memo.Simplify(el.Type))
			}
			fused = memo.Fuse(fused, f)
		})
		all.Merge(ms)
	}
	if !types.Equal(memo.Finalize(fused), want) {
		return fmt.Errorf("dedup replay disagrees with the op's schema")
	}
	hits, misses := tab.Stats()
	fh, fm, sh, sm := memo.CacheStats()
	r.note("intern.hit_ratio", ratio(hits, hits+misses))
	r.note("intern.nodes", float64(tab.Len()))
	r.note("intern.distinct_types", float64(all.Len()))
	r.note("fusion.memo_hit_ratio", ratio(fh+sh, fh+fm+sh+sm))
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// readProbe is the validate request's work: a codec round trip of the
// schema, then membership of each read record.
func (r *replayer) readProbe(fused types.Type, reads [][]byte) error {
	var t types.Type
	var err error
	r.tr.timed("types.codec", func() {
		var b []byte
		if b, err = types.MarshalJSON(fused); err == nil {
			t, err = types.UnmarshalJSON(b)
		}
	})
	if err != nil {
		return err
	}
	var vals []value.Value
	r.tr.timed("jsontext.parse", func() {
		for _, rec := range reads {
			var v value.Value
			if v, err = jsontext.ParseBytes(rec); err != nil {
				return
			}
			vals = append(vals, v)
		}
	})
	if err != nil {
		return err
	}
	valid := 0
	r.tr.timed("types.member", func() {
		for _, v := range vals {
			if types.Member(v, t) {
				valid++
			}
		}
	})
	if valid != len(vals) {
		return fmt.Errorf("read probe: %d of %d records conform to their own schema", valid, len(vals))
	}
	return nil
}

// engine runs the op once more with a Collector to read the map-reduce
// engine's own accounting. The stream's path has no engine; its
// records go through FromBytes instead.
func (r *replayer) engine(ctx context.Context, in replayInput) error {
	kind := r.kind
	if kind == kindStream {
		kind = kindBytes
	}
	c := jsi.NewCollector()
	if _, _, _, err := inferOp(ctx, kind, in, jsi.Options{Workers: workers, Collector: c}, false); err != nil {
		return err
	}
	m := c.Metrics()
	r.note("mapreduce.map_ms", float64(m.Counters["mapreduce_map_ns"])/1e6)
	r.note("mapreduce.queue_wait_ms", float64(m.Histograms["mapreduce_queue_wait_ns"].Sum)/1e6)
	r.note("mapreduce.combine_ms", float64(m.Histograms["mapreduce_combine_ns"].Sum)/1e6)
	r.note("mapreduce.utilization_pct", float64(m.Gauges["mapreduce_utilization_permille"])/10)
	r.note("mapreduce.tasks", float64(m.Counters["mapreduce_tasks"]))
	return nil
}

// decodeAllocs measures the bytes the decoder allocates typing the
// op's records, untraced: per chunk, or record by record through a
// buffered reader for the stream.
func (r *replayer) decodeAllocs(in replayInput) error {
	var chunks [][]byte
	if r.kind != kindStream {
		var err error
		if chunks, _, err = r.chunk(in); err != nil {
			return err
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if r.kind == kindStream {
		dec := infer.NewDecoder(bytes.NewReader(in.data), jsontext.Options{})
		defer dec.Release()
		for {
			if _, err := dec.Next(); err == io.EOF {
				break
			} else if err != nil {
				return err
			}
		}
	}
	for _, c := range chunks {
		if _, err := infer.InferAllWith(c, nil, nil); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&after)
	r.note("infer.alloc_mib", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	return nil
}
