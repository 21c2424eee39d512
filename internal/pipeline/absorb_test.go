package pipeline

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/dataset"
	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/obs"
	"repro/internal/stats"
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
// record decoded by Decoder.Next, its size tallied and its type
// left-folded into the fused type. Its Fold is what RunStream must
// return, and it fails where RunStream must fail.
func referenceStream(env *Env, r io.Reader) (Result, int64, error) {
	dec := infer.NewDecoder(r, jsontext.Options{MaxDepth: env.MaxDepth})
	defer dec.Release()
	acc := env.feedAcc(dec)
	for {
		t, err := dec.Next()
		if err == io.EOF {
			return acc.Fold(), dec.Offset(), nil
		}
		if err != nil {
			return Result{}, 0, err
		}
		acc.sum.Sizes.Add(t.Size(), 1)
		acc.fused = env.Fusion.Fuse(acc.fused, env.Fusion.Simplify(t))
	}
}

// An absorbPolicy is one run configuration the absorb fuzzers draw by
// their policy byte, and whether its decoder absorbs.
type absorbPolicy struct {
	name    string
	env     Env
	absorbs bool
}

// absorbPolicies returns the paper's and the tuple strategy, which
// absorb, and tagged unions (alone and over tuples) and enrichment,
// under which the decoder types every record.
func absorbPolicies(tb testing.TB) []absorbPolicy {
	set, err := enrich.ParseSet([]string{"all"})
	if err != nil {
		tb.Fatal(err)
	}
	return []absorbPolicy{
		{"paper", Env{}, true},
		{"tuples", Env{Fusion: fusion.Options{Tuples: true}}, true},
		{"tagged", Env{Fusion: fusion.Options{Tagged: true}}, false},
		{"tagged+tuples", Env{Fusion: fusion.Options{Tagged: true, Tuples: true}}, false},
		{"enrich", Env{Enrich: set}, false},
	}
}

// requireSameStream runs RunStream and the reference fold over data
// through every reader kind and fails unless the results and byte
// counts agree, or both fail. The error texts may differ: a stream cut
// between values can fail at the end of a chunk where the sequential
// decoder reads on to the offending token. It returns RunStream's
// recorded metrics over the plain reader.
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
		if (err != nil) != (wantErr != nil) {
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

// FuzzStreamAbsorb checks RunStream, which absorbs records its cover or
// its chunk's fold already covers, against the reference fold that
// types every record: the same Result, or failure on both sides, on any
// input, through every reader kind, at a MaxDepth drawn from depth (0:
// the default), under the policy drawn from policy. A policy whose decoder declines absorbs
// nothing.
func FuzzStreamAbsorb(f *testing.F) {
	type seed struct {
		data  []byte
		depth uint8
	}
	var seeds []seed
	for _, name := range []string{"github", "nytimes", "wikidata", "mixed"} {
		g, err := dataset.New(name)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, seed{dataset.NDJSON(g, 12, 3), 0})
	}
	seeds = append(seeds,
		seed{[]byte(`{"a": "x"}` + "\n" + `{"a": "` + strings.Repeat("y", 70<<10) + `"}` + "\n" + `{"a": "z", "b": 1}`), 0},
		seed{[]byte(`{"a": 1, "b": "x"}` + "\n" + `{"b": "y"}` + "\n" + `{"b": "z", "a": 2, "a": 3}` + "\n"), 0},
		seed{[]byte(`{"a": 1}` + "\n" + `{"a": 2}` + "\n" + `{"a": `), 0},
		seed{[]byte(`[[1]]` + "\n" + `[[1], [2]]` + "\n" + `[[[1]]]` + "\n"), 3},
		seed{[]byte(`[1]` + "\n" + strings.Repeat("[", jsontext.DefaultMaxDepth+2)), 0},
		seed{[]byte(`[1, "x"]` + "\n" + `[2, "y"]` + "\n" + `[1, "x", 3]` + "\n" + `[]` + "\n" + `[1, 2, 3, 4, 5]` + "\n"), 0},
		seed{[]byte(`{"type": "a", "x": [1, 2]}` + "\n" + `{"type": "b"}` + "\n" + `{"type": "a", "x": [3, 4]}` + "\n"), 0},
	)
	policies := absorbPolicies(f)
	// Every seed runs under every policy, the paper's (0) included.
	for _, s := range seeds {
		for p := range policies {
			f.Add(s.data, s.depth, uint8(p))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, depth, policy uint8) {
		p := policies[int(policy)%len(policies)]
		env := p.env
		env.MaxDepth = int(depth % 8)
		m := requireSameStream(t, &env, data)
		if n := m.Counters["infer_absorbed_records"]; !p.absorbs && n != 0 {
			t.Fatalf("%s: absorbed %d records", p.name, n)
		}
	})
}

// TestRunStreamAbsorbs checks where the stream absorbs: the paper's
// and the tuple strategy without enrichment absorb most generator
// records and count them, while tagged unions and enrichment absorb
// none. Every
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
		for _, c := range []absorbPolicy{
			{"paper", Env{}, true},
			{"tuples", Env{Fusion: fusion.Options{Tuples: true}}, true},
			{"tagged", Env{Fusion: fusion.Options{Tagged: true}}, false},
			{"enrich", Env{Enrich: set}, false},
		} {
			m := requireSameStream(t, &c.env, data)
			absorbed, records := m.Counters["infer_absorbed_records"], m.Counters["infer_records"]
			if records != 300 {
				t.Fatalf("%s, %s: %d records recorded, want 300", name, c.name, records)
			}
			switch {
			case !c.absorbs && absorbed != 0:
				t.Errorf("%s, %s: absorbed %d records", name, c.name, absorbed)
			case c.absorbs && name != "wikidata" && absorbed < 250:
				t.Errorf("%s, %s: absorbed %d of 300 records, want most", name, c.name, absorbed)
			}
		}
	}
}

// referenceChunks is the chunked fold with nothing absorbed: every
// record of every chunk typed by Decoder.Next under env's policy,
// tallied by stats.Summary.Add and folded as a Simplify'd type. Its
// Result is what Run must return over the same chunks; it fails where
// some chunk does.
func referenceChunks(env *Env, chunks [][]byte) (Result, error) {
	var sum stats.Summary
	fz := env.Fusion
	fused := types.Type(types.Empty)
	for _, c := range chunks {
		dec := infer.NewBytesDecoder(c, jsontext.Options{})
		env.feedAcc(dec)
		for {
			t, err := dec.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				dec.Release()
				return Result{}, err
			}
			sum.Add(t)
			fused = fz.Fuse(fused, fz.Simplify(t))
		}
		dec.Release()
	}
	return Result{
		Fused:         fz.Finalize(fused),
		Records:       sum.Count(),
		DistinctTypes: sum.Distinct(),
		MinTypeSize:   sum.MinSize(),
		MaxTypeSize:   sum.MaxSize(),
		AvgTypeSize:   sum.AvgSize(),
	}, nil
}

// splitAtNewlines cuts data after a random subset of its newlines,
// drawn from seed.
func splitAtNewlines(data []byte, seed uint64) [][]byte {
	r := rand.New(rand.NewSource(int64(seed)))
	var chunks [][]byte
	start := 0
	for i, c := range data {
		if c == '\n' && r.Intn(3) == 0 {
			chunks = append(chunks, data[start:i+1])
			start = i + 1
		}
	}
	if start < len(data) {
		chunks = append(chunks, data[start:])
	}
	return chunks
}

// FuzzChunkAbsorb checks Run with a cover, whose chunks absorb the
// records the cover or their own fold already covers, against the
// reference that types every record: over a random split of the input
// into chunks at 1-3 workers, under the policy drawn from policy, Run
// fails exactly where the reference does, and otherwise returns the
// same Result, DistinctTypes included, with the same finalized fused
// type. A policy whose decoder declines absorbs nothing.
func FuzzChunkAbsorb(f *testing.F) {
	type seed struct {
		data    []byte
		split   uint64
		workers uint8
	}
	var seeds []seed
	for i, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, seed{dataset.NDJSON(g, 40, int64(i)), uint64(i), uint8(i)})
	}
	seeds = append(seeds,
		seed{[]byte(`{"a": 1, "b": "x"}` + "\n" + `{"b": "y", "a": 2}` + "\n" + `{"a": 3, "b": "z", "b": "w"}` + "\n"), 1, 0},
		seed{[]byte(`[1, "x"]` + "\n" + `["x", 1]` + "\n" + `[1, "x"]` + "\n" + `[]` + "\n"), 2, 1},
		seed{[]byte(`[1, "x"]` + "\n" + `["x", 1]` + "\n" + `[1, "x"]` + "\n" + `[]` + "\n" + `[1, 2, 3, 4, 5]` + "\n" + `[2, "y"]` + "\n"), 2, 1},
	)
	policies := absorbPolicies(f)
	// Every seed runs under every policy, the paper's (0) included.
	for _, s := range seeds {
		for p := range policies {
			f.Add(s.data, s.split, s.workers, uint8(p))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, workers, policy uint8) {
		p := policies[int(policy)%len(policies)]
		chunks := splitAtNewlines(data, seed)
		want, wantErr := referenceChunks(&p.env, chunks)
		env := p.env
		env.Workers, env.Cover = 1+int(workers%3), &Cover{}
		reg := obs.NewRegistry()
		env.Rec = reg
		acc, _, err := Run(context.Background(), &env, SliceFeed(chunks))
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: Run err %v, reference err %v", p.name, err, wantErr)
		}
		if err != nil {
			return
		}
		got := Fold(acc)
		if types.Compare(got.Fused, want.Fused) != 0 || got.Fused.String() != want.Fused.String() ||
			got.Records != want.Records || got.DistinctTypes != want.DistinctTypes ||
			got.MinTypeSize != want.MinTypeSize || got.MaxTypeSize != want.MaxTypeSize || got.AvgTypeSize != want.AvgTypeSize {
			t.Fatalf("%s: Run %+v\nwant %+v", p.name, got, want)
		}
		if n := reg.Snapshot().Counters["infer_absorbed_records"]; !p.absorbs && n != 0 {
			t.Fatalf("%s: absorbed %d records", p.name, n)
		}
	})
}
