package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	jsi "repro"
)

// batchSession runs one batch workload: Infer over the whole input and
// the JSON Schema export is one op, and validating readRecords records
// against the inferred schema is one read.
type batchSession struct {
	w  workload
	in replayInput
	n  int64 // generated records
	// ref is the JSON Schema of the first op; every later op must
	// reproduce it byte for byte.
	ref   []byte
	first *jsi.Schema
	reads [][]byte
	sc    scale
	acct  accounting
}

// openBatch is the program's set-up as a batch user sees it: load the
// input the way the Source needs it and answer the first op.
func openBatch(ctx context.Context, w workload, dir string, cfg childConfig) (*batchSession, error) {
	b := &batchSession{w: w, in: replayInput{path: filepath.Join(dir, recordsFile)}, n: int64(cfg.scale.records[w.name]), sc: cfg.scale}
	if w.kind == kindBytes {
		data, err := os.ReadFile(b.in.path)
		if err != nil {
			return nil, err
		}
		b.in.data = data
	}
	s, st, js, err := inferOp(ctx, w.kind, b.in, jsi.Options{Workers: workers}, true)
	if err != nil {
		return nil, err
	}
	if st.Records != b.n {
		return nil, fmt.Errorf("%s: first op typed %d records, generated %d", w.name, st.Records, b.n)
	}
	b.ref, b.first = js, s
	return b, nil
}

func (b *batchSession) digest() string { return digest(b.ref) }

// warm checks the first op against an oracle built through another
// Source — FromReader with one worker for the parallel paths, FromBytes
// for the stream — and runs the second warm-up op.
func (b *batchSession) warm(ctx context.Context, _ string, cfg childConfig) error {
	reads, err := firstLines(b.in.path, cfg.scale.readRecords)
	if err != nil {
		return err
	}
	b.reads = reads
	oracleKind, opts := kindStream, jsi.Options{Workers: 1}
	oracleIn := replayInput{path: b.in.path}
	if b.w.kind == kindStream {
		data, err := os.ReadFile(b.in.path)
		if err != nil {
			return err
		}
		oracleKind, opts, oracleIn = kindBytes, jsi.Options{Workers: workers}, replayInput{data: data}
	}
	oracle, _, _, err := inferOp(ctx, oracleKind, oracleIn, opts, false)
	if err != nil {
		return err
	}
	want, err := oracle.MarshalJSON()
	if err != nil {
		return err
	}
	if cfg.corruptOracle {
		want[len(want)/2] ^= 1
	}
	got, err := b.first.MarshalJSON()
	if err != nil {
		return err
	}
	b.acct.Attempted++
	if !bytes.Equal(got, want) {
		b.acct.fail("%s: schema differs from the oracle inferred through another Source", b.w.name)
	}
	// The first op's schema is garbage from here on. Dropped, it leaves
	// each later op's peak_rss_mib to that op's own memory, as in a
	// fresh CLI invocation.
	b.first = nil
	for k := 1; k < warmups; k++ {
		var discard accounting
		b.op(ctx, &discard)
		b.acct.Attempted += discard.Attempted
		b.acct.Failed += discard.Failed
		b.acct.Failures = append(b.acct.Failures, discard.Failures...)
	}
	return nil
}

// op runs one timed op and one read, checks both and records them in a.
func (b *batchSession) op(ctx context.Context, a *accounting) {
	// Outside the clock, start the op the way a fresh CLI invocation
	// starts: no garbage, no memory held from earlier ops, and a peak
	// resident set that covers this op alone.
	debug.FreeOSMemory()
	a.Attempted++
	if err := resetPeakRSS(); err != nil {
		a.fail("%s: %v", b.w.name, err)
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuTime(), time.Now()
	s, st, js, err := inferOp(ctx, b.w.kind, b.in, jsi.Options{Workers: workers}, true)
	dt := time.Since(t0)
	a.CPU += cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	a.memDelta(&before, &after)
	peak, perr := peakRSSMiB()
	switch {
	case err != nil:
		a.fail("%s: %v", b.w.name, err)
		return
	case !bytes.Equal(js, b.ref):
		a.fail("%s: JSON Schema differs from the first op's", b.w.name)
	case st.Records != b.n:
		a.fail("%s: typed %d records, generated %d", b.w.name, st.Records, b.n)
	case perr != nil:
		a.fail("%s: %v", b.w.name, perr)
	default:
		a.Op = append(a.Op, ms(dt))
		a.Peak = append(a.Peak, peak)
		a.Records += st.Records
		a.Timed += dt
	}

	a.Attempted++
	t0 = time.Now()
	valid, err := validate(s, b.reads)
	dt = time.Since(t0)
	switch {
	case err != nil:
		a.fail("%s: read: %v", b.w.name, err)
	case valid != len(b.reads):
		a.fail("%s: read: %d of %d records conform to their own schema", b.w.name, valid, len(b.reads))
	default:
		a.Read = append(a.Read, ms(dt))
	}
}

// validate is a read of an inferred schema, as a client that stored it
// would do it: decode the schema from its codec, then check records
// against it.
func validate(s *jsi.Schema, records [][]byte) (int, error) {
	codec, err := s.MarshalJSON()
	if err != nil {
		return 0, err
	}
	loaded, err := jsi.UnmarshalSchemaJSON(codec)
	if err != nil {
		return 0, err
	}
	valid := 0
	for _, rec := range records {
		ok, err := loaded.Contains(rec)
		if err != nil {
			return valid, err
		}
		if ok {
			valid++
		}
	}
	return valid, nil
}

func (b *batchSession) round(ctx context.Context, budget time.Duration, minOps int) {
	start := time.Now()
	for first := true; first || keepGoing(start, budget, len(b.acct.Op), minOps); first = false {
		if ctx.Err() != nil {
			return
		}
		b.op(ctx, &b.acct)
	}
}

func (b *batchSession) finish(context.Context) childResult { return childResult{accounting: b.acct} }

// replay traces the op over the input, then the serving layers over
// the input cut into ingest batches.
func (b *batchSession) replay(ctx context.Context, tr *tracer, outDir string) (map[string]float64, error) {
	sc := b.sc
	if b.in.data == nil {
		data, err := os.ReadFile(b.in.path)
		if err != nil {
			return nil, err
		}
		b.in.data = data
	}
	inputs := make([]replayInput, sc.traceReps)
	for i := range inputs {
		inputs[i] = b.in
		inputs[i].reads = b.reads
	}
	layers, err := replayLayers(ctx, tr, b.w.kind, true, inputs)
	if err != nil {
		return nil, err
	}
	batches := splitRecords(b.in.data, sc.batchRecords)
	if len(batches) > sc.serveProbe {
		batches = batches[:sc.serveProbe]
	}
	probe, err := serveProbe(ctx, tr, outDir, batches, 1, sc.partitions)
	if err != nil {
		return nil, err
	}
	for k, v := range probe {
		layers[k] = v
	}
	return layers, nil
}

func (b *batchSession) close() error { return nil }
