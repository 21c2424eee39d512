// Benchmarks regenerating the paper's evaluation: one benchmark per
// table (Tables 1-8) plus micro-benchmarks and the ablations DESIGN.md
// calls out. Run them all with
//
//	go test -bench=. -benchmem
//
// Table benches default to the 1K scale so the suite stays fast; set
// JSI_MAX_SCALE (e.g. 100000) to climb the paper's ladder. Custom
// metrics report the table's headline numbers: fused schema size,
// distinct type counts, simulated makespans.
package jsoninference_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"testing"

	jsi "repro"
	"repro/internal/abstraction"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/mapreduce"
	"repro/internal/types"
)

// benchScale is the record count used by the table benches.
func benchScale() int {
	n := experiments.DefaultMaxScale()
	if n > 100_000 {
		n = 100_000 // keep -bench runs bounded even with a huge env
	}
	if n > 1000 {
		// The env var opts in to bigger runs; default stays at 1K.
		return n
	}
	return 1000
}

func benchCfg() experiments.Config {
	return experiments.Config{Scales: []experiments.Scale{{Label: "bench", N: benchScale()}}, Seed: 20170321}
}

// BenchmarkTable1DatasetSizes measures dataset generation, the input to
// every other experiment (Table 1 reports the generated sizes).
func BenchmarkTable1DatasetSizes(b *testing.B) {
	for _, name := range dataset.PaperNames() {
		b.Run(name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				g, err := dataset.New(name)
				if err != nil {
					b.Fatal(err)
				}
				bytes = int64(len(dataset.NDJSON(g, benchScale(), 1)))
			}
			b.SetBytes(bytes)
			b.ReportMetric(float64(bytes), "dataset-bytes")
		})
	}
}

// benchDatasetTable is the body of the Table 2-5 benches: the full
// two-phase pipeline over one dataset, reporting the table's headline
// measurements as metrics.
func benchDatasetTable(b *testing.B, name string) {
	b.Helper()
	cfg := benchCfg()
	g, err := dataset.New(name)
	if err != nil {
		b.Fatal(err)
	}
	data := dataset.NDJSON(g, benchScale(), 1)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	var res experiments.PipelineResult
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunPipelineOverNDJSON(context.Background(), data, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.DistinctTypes), "distinct-types")
	b.ReportMetric(res.AvgTypeSize, "avg-type-size")
	b.ReportMetric(float64(res.Fused.Size()), "fused-size")
	if avg := res.AvgTypeSize; avg > 0 {
		b.ReportMetric(float64(res.Fused.Size())/avg, "fused-to-avg-ratio")
	}
}

// BenchmarkTable2GitHub regenerates Table 2 (GitHub).
func BenchmarkTable2GitHub(b *testing.B) { benchDatasetTable(b, "github") }

// BenchmarkTable3Twitter regenerates Table 3 (Twitter).
func BenchmarkTable3Twitter(b *testing.B) { benchDatasetTable(b, "twitter") }

// BenchmarkTable4Wikidata regenerates Table 4 (Wikidata).
func BenchmarkTable4Wikidata(b *testing.B) { benchDatasetTable(b, "wikidata") }

// BenchmarkTable5NYTimes regenerates Table 5 (NYTimes).
func BenchmarkTable5NYTimes(b *testing.B) { benchDatasetTable(b, "nytimes") }

// BenchmarkTable6Times regenerates Table 6: wall-clock inference+fusion
// per dataset on this host (the single-machine configuration).
func BenchmarkTable6Times(b *testing.B) {
	for _, name := range []string{"github", "twitter", "wikidata"} {
		b.Run(name, func(b *testing.B) {
			g, err := dataset.New(name)
			if err != nil {
				b.Fatal(err)
			}
			data := dataset.NDJSON(g, benchScale(), 1)
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunPipelineOverNDJSON(context.Background(), data, benchCfg()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable7Cluster regenerates Table 7: the simulated 6-node
// cluster under both block placements, reporting virtual makespans.
func BenchmarkTable7Cluster(b *testing.B) {
	sim := cluster.PaperCluster(30)
	sizes := cluster.SplitBytes(22e9, 176)
	for _, p := range []cluster.Placement{cluster.PlaceAllOnOne, cluster.PlaceRoundRobin} {
		b.Run(p.String(), func(b *testing.B) {
			var rep cluster.Report
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = cluster.Run(sim, cluster.PlaceBlocks(sizes, p, len(sim.Nodes)))
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Makespan.Seconds(), "sim-makespan-s")
			b.ReportMetric(float64(rep.NodesUsed), "nodes-used")
			b.ReportMetric(100*rep.Utilization(sim.TotalCores()), "utilization-%")
		})
	}
}

// BenchmarkTable8Partitioned regenerates Table 8: four partitions
// processed in isolation plus the final (negligible) fusion.
func BenchmarkTable8Partitioned(b *testing.B) {
	sim := cluster.PaperCluster(30)
	parts := [][]int64{
		cluster.SplitBytes(5.2e9, 44),
		cluster.SplitBytes(5.5e9, 44),
		cluster.SplitBytes(5.6e9, 44),
		cluster.SplitBytes(5.7e9, 44),
	}
	var reports []cluster.Report
	var finalFuse float64
	for i := 0; i < b.N; i++ {
		rs, ff, err := cluster.RunPartitioned(sim, parts)
		if err != nil {
			b.Fatal(err)
		}
		reports = rs
		finalFuse = ff.Seconds()
	}
	var total float64
	for _, r := range reports {
		total += r.Makespan.Minutes()
	}
	b.ReportMetric(total/float64(len(reports)), "avg-partition-min")
	b.ReportMetric(finalFuse, "final-fuse-s")
}

// --- ablation benches (DESIGN.md section 4) ---

// BenchmarkAblationStreaming compares direct token-to-type inference
// with parse-then-infer.
func BenchmarkAblationStreaming(b *testing.B) {
	g, _ := dataset.New("nytimes")
	data := dataset.NDJSON(g, 1000, 1)
	b.Run("tokens-to-types", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := infer.InferAll(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("materialize-values", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			vs, err := jsontext.ParseAll(data)
			if err != nil {
				b.Fatal(err)
			}
			for _, v := range vs {
				infer.Infer(v)
			}
		}
	})
}

// BenchmarkAblationReduceShape compares the reduction shapes that
// associativity makes interchangeable.
func BenchmarkAblationReduceShape(b *testing.B) {
	g, _ := dataset.New("twitter")
	data := dataset.NDJSON(g, 2000, 1)
	ts, err := infer.InferAll(data)
	if err != nil {
		b.Fatal(err)
	}
	for i := range ts {
		ts[i] = fusion.Simplify(ts[i])
	}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fusion.FuseAll(ts)
		}
	})
	b.Run("tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fusion.FuseAllTree(ts)
		}
	})
}

// BenchmarkAblationCombiner compares the two reduction disciplines of
// the map-reduce engine on the full pipeline.
func BenchmarkAblationCombiner(b *testing.B) {
	g, _ := dataset.New("twitter")
	data := dataset.NDJSON(g, 2000, 1)
	chunks := jsontext.SplitLines(data, 16)
	mapFn := func(_ context.Context, chunk []byte) (types.Type, error) {
		ts, err := infer.InferAll(chunk)
		if err != nil {
			return nil, err
		}
		acc := types.Type(types.Empty)
		for _, t := range ts {
			acc = fusion.Fuse(acc, fusion.Simplify(t))
		}
		return acc, nil
	}
	for _, ordered := range []bool{false, true} {
		name := "unordered-combiner"
		if ordered {
			name = "ordered-fold"
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				_, _, err := mapreduce.RunSlice(context.Background(), chunks, mapFn, fusion.Fuse,
					types.Type(types.Empty), mapreduce.Config{Ordered: ordered})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCollapse isolates array simplification, the
// succinctness-for-precision trade of Section 2.
func BenchmarkAblationCollapse(b *testing.B) {
	// A mixed-content tuple in the style of the paper's example.
	elems := make([]types.Type, 0, 64)
	for i := 0; i < 64; i++ {
		switch i % 3 {
		case 0:
			elems = append(elems, types.Str)
		case 1:
			elems = append(elems, types.Num)
		default:
			elems = append(elems, types.MustParse("{E: Str, F: Num}"))
		}
	}
	tuple := types.MustTuple(elems...)
	b.ReportMetric(float64(tuple.Size()), "tuple-size")
	var simplified types.Type
	for i := 0; i < b.N; i++ {
		simplified = fusion.Simplify(tuple)
	}
	b.ReportMetric(float64(simplified.Size()), "simplified-size")
}

// BenchmarkAblationBaseline compares fusion against Spark-style
// coercion end to end.
func BenchmarkAblationBaseline(b *testing.B) {
	g, _ := dataset.New("nytimes")
	vs := dataset.Values(g, 1000, 1)
	b.Run("fusion", func(b *testing.B) {
		var fused types.Type
		for i := 0; i < b.N; i++ {
			fused = types.Empty
			for _, v := range vs {
				fused = fusion.Fuse(fused, fusion.Simplify(infer.Infer(v)))
			}
		}
		b.ReportMetric(float64(fused.Size()), "schema-size")
	})
	b.Run("coercion", func(b *testing.B) {
		var base types.Type
		for i := 0; i < b.N; i++ {
			base = baseline.InferAll(vs)
		}
		b.ReportMetric(float64(base.Size()), "schema-size")
	})
}

// BenchmarkAblationPositional compares the paper's array fusion with the
// positional extension on the full pipeline.
func BenchmarkAblationPositional(b *testing.B) {
	g, _ := dataset.New("twitter")
	data := dataset.NDJSON(g, 1000, 1)
	for _, positional := range []bool{false, true} {
		name := "paper"
		cfg := experiments.Config{}
		if positional {
			name = "positional"
			cfg.Fusion = fusion.Options{Tuples: true}
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			var res experiments.PipelineResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = experiments.RunPipelineOverNDJSON(context.Background(), data, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Fused.Size()), "fused-size")
		})
	}
}

// --- micro-benchmarks of the core operations ---

// BenchmarkInferValue measures phase-1 inference on one large record.
func BenchmarkInferValue(b *testing.B) {
	g, _ := dataset.New("github")
	v := dataset.Values(g, 1, 1)[0]
	for i := 0; i < b.N; i++ {
		infer.Infer(v)
	}
}

// BenchmarkFusePair measures one binary fusion of two realistic fused
// schemas, the reduce phase's inner operation.
func BenchmarkFusePair(b *testing.B) {
	g, _ := dataset.New("twitter")
	vs := dataset.Values(g, 200, 1)
	half := len(vs) / 2
	t1, t2 := types.Type(types.Empty), types.Type(types.Empty)
	for _, v := range vs[:half] {
		t1 = fusion.Fuse(t1, fusion.Simplify(infer.Infer(v)))
	}
	for _, v := range vs[half:] {
		t2 = fusion.Fuse(t2, fusion.Simplify(infer.Infer(v)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fusion.Fuse(t1, t2)
	}
}

// BenchmarkParseJSON measures the lexer+parser on realistic bytes.
func BenchmarkParseJSON(b *testing.B) {
	g, _ := dataset.New("twitter")
	data := dataset.NDJSON(g, 500, 1)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, err := jsontext.ParseAll(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTypePrintParse measures the schema syntax round trip.
func BenchmarkTypePrintParse(b *testing.B) {
	g, _ := dataset.New("nytimes")
	acc := types.Type(types.Empty)
	for _, v := range dataset.Values(g, 100, 1) {
		acc = fusion.Fuse(acc, fusion.Simplify(infer.Infer(v)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := acc.String()
		if _, err := types.Parse(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferNDJSON measures the public in-memory entry point end to
// end with no recorder installed, on the two extremes of absorption
// (docs/PERFORMANCE.md): most of twitter's records are absorbed as
// members of the schema fused so far, while most of wikidata's
// all-distinct records are typed. CI's -benchtime=1x smoke runs both.
func BenchmarkInferNDJSON(b *testing.B) {
	for _, name := range []string{"twitter", "wikidata"} {
		b.Run(name, func(b *testing.B) {
			g, _ := dataset.New(name)
			data := dataset.NDJSON(g, benchScale(), 1)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := jsi.InferNDJSON(data, jsi.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInferReader measures FromReader, the sequential stream,
// end to end with no recorder installed. On nytimes nearly every record
// is a member of the type fused so far and is absorbed without being
// typed. wikidata is the control: an ids-as-keys record is a member
// only once the fused record has met all its keys, so far fewer are
// absorbed. The absorbed-pct metric is the share of records the stream
// absorbed, read from infer_absorbed_records in one observed run
// outside the timed loop.
func BenchmarkInferReader(b *testing.B) {
	for _, name := range []string{"nytimes", "wikidata"} {
		b.Run(name, func(b *testing.B) {
			g, _ := dataset.New(name)
			data := dataset.NDJSON(g, benchScale(), 1)
			c := jsi.NewCollector()
			if _, _, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), jsi.Options{Collector: c}); err != nil {
				b.Fatal(err)
			}
			m := c.Metrics()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), jsi.Options{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(100*float64(m.Counters["infer_absorbed_records"])/float64(m.Counters["infer_records"]), "absorbed-pct")
		})
	}
}

// BenchmarkInferNDJSONTagged measures the in-memory entry point on
// github records under TaggedUnions, a run that absorbs nothing: every
// chunk types, simplifies and fuses every record.
func BenchmarkInferNDJSONTagged(b *testing.B) {
	g, _ := dataset.New("github")
	data := dataset.NDJSON(g, benchScale(), 1)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := jsi.InferNDJSON(data, jsi.Options{TaggedUnions: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferNDJSONTuples measures the in-memory entry point under
// PreserveTupleArrays, whose decoder absorbs like the default's: most
// records are matched against the schema fused so far, not typed.
func BenchmarkInferNDJSONTuples(b *testing.B) {
	for _, name := range []string{"github", "twitter", "nytimes"} {
		b.Run(name, func(b *testing.B) {
			g, _ := dataset.New(name)
			data := dataset.NDJSON(g, benchScale(), 1)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := jsi.InferNDJSON(data, jsi.Options{PreserveTupleArrays: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInferNDJSONObserved is BenchmarkInferNDJSON/twitter with a
// Collector installed: the difference between the two is the full cost
// of observing a run (atomic counters, histogram observations, timing
// reads along the pipeline).
func BenchmarkInferNDJSONObserved(b *testing.B) {
	g, _ := dataset.New("twitter")
	data := dataset.NDJSON(g, benchScale(), 1)
	c := jsi.NewCollector()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := jsi.InferNDJSON(data, jsi.Options{Collector: c}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferFileStreaming measures the bounded-memory chunked file
// pipeline end to end.
func BenchmarkInferFileStreaming(b *testing.B) {
	g, _ := dataset.New("twitter")
	path := b.TempDir() + "/bench.ndjson"
	data := dataset.NDJSON(g, 2000, 1)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := jsi.InferFile(path, jsi.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfile measures statistics-enriched profiling per record.
func BenchmarkProfile(b *testing.B) {
	g, _ := dataset.New("nytimes")
	data := dataset.NDJSON(g, 1000, 1)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		if _, _, err := jsi.InferProfile(context.Background(), jsi.FromBytes(data), jsi.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAbstraction measures the key-abstraction pass on a hostile
// fused schema.
func BenchmarkAbstraction(b *testing.B) {
	g, _ := dataset.New("wikidata")
	res, err := experiments.RunPipelineOverNDJSON(context.Background(), dataset.NDJSON(g, 1000, 1), experiments.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Fused.Size()), "input-size")
	var out types.Type
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out = abstraction.Abstract(res.Fused, abstraction.Options{})
	}
	b.ReportMetric(float64(out.Size()), "output-size")
}

// BenchmarkJSONSchema measures the JSON Schema export alone on the
// schema Infer builds from wikidata's ids-as-keys records (the paper's
// §6.2 pathology: tens of thousands of schema nodes, most of them under
// a repeated subtree the export copies), plain and with every
// enrichment annotation, and on github's schema, whose few repeats show
// what numbering the shapes costs where copying saves little.
func BenchmarkJSONSchema(b *testing.B) {
	for _, c := range []struct {
		name, dataset string
		enrich        []string
	}{{"plain", "wikidata", nil}, {"enriched", "wikidata", []string{"all"}}, {"github", "github", nil}} {
		g, _ := dataset.New(c.dataset)
		data := dataset.NDJSON(g, 1500, 1)
		b.Run(c.name, func(b *testing.B) {
			s, _, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Enrich: c.enrich})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := s.JSONSchema()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(out)))
			}
		})
	}
}

// BenchmarkSchemaCodec measures the schema codec alone, MarshalJSON and
// UnmarshalSchemaJSON, on the schemas Infer builds from twitter's mixed
// records, wikidata's ids-as-keys records and github's events: the read
// half is what every validate request and schemad reload pays per
// schema, and github's few repeats show what numbering the shapes costs
// the write half where copying saves little.
func BenchmarkSchemaCodec(b *testing.B) {
	for _, name := range []string{"twitter", "wikidata", "github"} {
		g, _ := dataset.New(name)
		s, _, err := jsi.Infer(context.Background(), jsi.FromBytes(dataset.NDJSON(g, 1500, 1)), jsi.Options{})
		if err != nil {
			b.Fatal(err)
		}
		codec, err := s.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/marshal", func(b *testing.B) {
			b.SetBytes(int64(len(codec)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.MarshalJSON(); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/unmarshal", func(b *testing.B) {
			b.SetBytes(int64(len(codec)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := jsi.UnmarshalSchemaJSON(codec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadRepository measures LoadRepository, and Save beside it,
// on two snapshots: four twitter partitions, the document schemad reads
// per tenant on a cold start or a reload, and one partition of 1,500
// wikidata records, whose schema repeats most. Both report the
// snapshot's length.
func BenchmarkLoadRepository(b *testing.B) {
	for _, c := range []struct {
		dataset        string
		records, parts int
	}{{"twitter", 2000, 4}, {"wikidata", 1500, 1}} {
		g, _ := dataset.New(c.dataset)
		lines := bytes.SplitAfter(dataset.NDJSON(g, c.records, 1), []byte("\n"))
		repo := jsi.NewRepository()
		for part := 0; part < c.parts; part++ {
			var batch []byte
			for i := part; i < len(lines); i += c.parts {
				batch = append(batch, lines[i]...)
			}
			s, stats, err := jsi.Infer(context.Background(), jsi.FromBytes(batch), jsi.Options{})
			if err != nil {
				b.Fatal(err)
			}
			repo.Append(fmt.Sprintf("part-%d", part), s, stats.Records)
		}
		var snap bytes.Buffer
		if err := repo.Save(&snap); err != nil {
			b.Fatal(err)
		}
		b.Run(c.dataset+"/load", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := jsi.LoadRepository(bytes.NewReader(snap.Bytes())); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(snap.Len()), "snapshot-bytes")
		})
		b.Run(c.dataset+"/save", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := repo.Save(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(snap.Len()), "snapshot-bytes")
		})
	}
}
