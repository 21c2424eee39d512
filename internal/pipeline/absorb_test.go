package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/dataset"
	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/obs"
	"repro/internal/types"
)

// streamReaders are the ways the stream tests hand RunStream its input:
// whole, in small pieces, with the error on the last data read, and
// failing after the first read.
var streamReaders = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"reader", func(r io.Reader) io.Reader { return r }},
	{"onebyte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"dataerr", iotest.DataErrReader},
	{"timeout", iotest.TimeoutReader},
}

// referenceStream is the stream fold with nothing absorbed: every
// record decoded by Decoder.Next and left-folded through Add, with
// RunStream's error positions. Its Fold is what RunStream must return.
func referenceStream(env *Env, r io.Reader) (Result, int64, error) {
	dec := infer.NewDecoder(r, jsontext.Options{MaxDepth: env.MaxDepth})
	defer dec.Release()
	acc := env.feedAcc(dec, nil)
	for n := 1; ; n++ {
		t, err := dec.Next()
		if err == io.EOF {
			return acc.Fold(), dec.Offset(), nil
		}
		if err != nil {
			return Result{}, 0, fmt.Errorf("record %d: %w", n, err)
		}
		acc.Add(t)
	}
}

// requireSameStream runs RunStream and the reference fold over data
// through every reader kind and fails unless the results, byte counts
// and error strings agree. It returns RunStream's recorded metrics over
// the plain reader.
func requireSameStream(t *testing.T, env *Env, data []byte) obs.Metrics {
	t.Helper()
	var m obs.Metrics
	for _, rk := range streamReaders {
		want, wantN, wantErr := referenceStream(env, rk.wrap(bytes.NewReader(data)))
		reg := obs.NewRegistry()
		run := *env
		run.Rec = reg
		acc, n, err := RunStream(context.Background(), &run, rk.wrap(bytes.NewReader(data)))
		if rk.name == "reader" {
			m = reg.Snapshot()
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: err %v, want %v", rk.name, err, wantErr)
		}
		if err != nil {
			continue
		}
		got := Fold(acc)
		if n != wantN || types.Compare(got.Fused, want.Fused) != 0 || got.Fused.String() != want.Fused.String() ||
			got.Records != want.Records || got.DistinctTypes != want.DistinctTypes ||
			got.MinTypeSize != want.MinTypeSize || got.MaxTypeSize != want.MaxTypeSize || got.AvgTypeSize != want.AvgTypeSize {
			t.Fatalf("%s: RunStream %+v after %d bytes\nwant %+v after %d bytes", rk.name, got, n, want, wantN)
		}
	}
	return m
}

// FuzzStreamAbsorb checks RunStream, which absorbs records the fused
// type already covers, against the reference fold that types every
// record: the same Result or the same error, on any input, through
// every reader kind, at a MaxDepth drawn from depth (0: the default).
func FuzzStreamAbsorb(f *testing.F) {
	for _, name := range []string{"github", "nytimes", "wikidata", "mixed"} {
		g, err := dataset.New(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(dataset.NDJSON(g, 12, 3), uint8(0))
	}
	f.Add([]byte(`{"a": "x"}`+"\n"+`{"a": "`+strings.Repeat("y", 70<<10)+`"}`+"\n"+`{"a": "z", "b": 1}`), uint8(0))
	f.Add([]byte(`{"a": 1, "b": "x"}`+"\n"+`{"b": "y"}`+"\n"+`{"b": "z", "a": 2, "a": 3}`+"\n"), uint8(0))
	f.Add([]byte(`{"a": 1}`+"\n"+`{"a": 2}`+"\n"+`{"a": `), uint8(0))
	f.Add([]byte(`[[1]]`+"\n"+`[[1], [2]]`+"\n"+`[[[1]]]`+"\n"), uint8(3))
	f.Add([]byte(`[1]`+"\n"+strings.Repeat("[", jsontext.DefaultMaxDepth+2)), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, depth uint8) {
		requireSameStream(t, &Env{MaxDepth: int(depth % 8)}, data)
	})
}

// TestRunStreamAbsorbs checks where the stream absorbs: the paper's
// fusion without enrichment absorbs most generator records and counts
// them, while the other strategies and enrichment absorb none. Every
// run returns the reference fold's Result.
func TestRunStreamAbsorbs(t *testing.T) {
	set, err := enrich.ParseSet([]string{"counts"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"github", "nytimes", "wikidata"} {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 300, 4)
		for _, c := range []struct {
			env    Env
			absorb bool
		}{
			{Env{}, true},
			{Env{Fusion: fusion.Options{Strategy: fusion.Tuples{}}}, false},
			{Env{Fusion: fusion.Options{Strategy: fusion.Tagged{}}}, false},
			{Env{Enrich: set}, false},
		} {
			m := requireSameStream(t, &c.env, data)
			absorbed, records := m.Counters["infer_absorbed_records"], m.Counters["infer_records"]
			if records != 300 {
				t.Fatalf("%s, %s: %d records recorded, want 300", name, c.env.Fusion.ResolvedStrategy().Name(), records)
			}
			switch {
			case !c.absorb && absorbed != 0:
				t.Errorf("%s, %s, enrich %v: absorbed %d records", name, c.env.Fusion.ResolvedStrategy().Name(), c.env.Enrich != nil, absorbed)
			case c.absorb && name != "wikidata" && absorbed < 250:
				t.Errorf("%s: absorbed %d of 300 records, want most", name, absorbed)
			}
		}
	}
}
