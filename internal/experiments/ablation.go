package experiments

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/abstraction"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/mapreduce"
	"repro/internal/stats"
	"repro/internal/types"
)

// The ablations quantify the design choices DESIGN.md calls out. Each
// returns a Table so benchtables and the benchmarks share them.

// AblationSuccinctness compares the fused schema against the trivial
// alternative — keeping the union of all distinct inferred types — per
// dataset. This is the compaction the fusion operator buys (the implicit
// baseline of Tables 2-5: "one can consider the average size as a
// baseline").
func AblationSuccinctness(cfg Config) (Table, error) {
	t := Table{
		Number:  101,
		Caption: "Ablation: fused schema vs union of distinct types",
		Headers: []string{"Dataset", "Distinct types", "Sum of distinct sizes", "Fused size", "Compression"},
	}
	scales := cfg.scales()
	n := scales[len(scales)-1].N
	for _, name := range dataset.PaperNames() {
		g, err := dataset.New(name)
		if err != nil {
			return Table{}, err
		}
		data := dataset.NDJSON(g, n, cfg.seed())
		res, err := RunPipelineOverNDJSON(context.Background(), data, cfg)
		if err != nil {
			return Table{}, err
		}
		ts, err := infer.InferAll(data)
		if err != nil {
			return Table{}, err
		}
		var sum stats.Summary
		for _, tt := range ts {
			sum.Add(tt)
		}
		sumDistinct := sum.DistinctSizeSum()
		comp := float64(sumDistinct) / float64(res.Fused.Size())
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", sum.Distinct()),
			fmt.Sprintf("%d", sumDistinct),
			fmt.Sprintf("%d", res.Fused.Size()),
			fmt.Sprintf("%.1fx", comp),
		})
	}
	return t, nil
}

// AblationPrecision compares fusion against Spark-style coercion
// (internal/baseline) on every dataset: what the union types and
// optionality markers preserve that coercion destroys.
func AblationPrecision(cfg Config) (Table, error) {
	t := Table{
		Number:  102,
		Caption: "Ablation: fusion vs Spark-style coercion",
		Headers: []string{"Dataset", "Fused size", "Coerced size", "Optional fields", "Union nodes", "Coerced leaves", "Dropped nulls"},
	}
	scales := cfg.scales()
	n := scales[len(scales)-1].N
	if n > 20_000 {
		n = 20_000 // the baseline inferencer materializes values
	}
	for _, name := range dataset.PaperNames() {
		g, err := dataset.New(name)
		if err != nil {
			return Table{}, err
		}
		vs := dataset.Values(g, n, cfg.seed())
		fused := types.Type(types.Empty)
		for _, v := range vs {
			fused = fusion.Fuse(fused, fusion.Simplify(infer.Infer(v)))
		}
		base := baseline.InferAll(vs)
		rep := baseline.Compare(fused, base)
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", rep.FusionSize),
			fmt.Sprintf("%d", rep.BaselineSize),
			fmt.Sprintf("%d", rep.OptionalFields),
			fmt.Sprintf("%d", rep.UnionNodes),
			fmt.Sprintf("%d", rep.CoercedLeaves),
			fmt.Sprintf("%d", rep.DroppedNullability),
		})
	}
	return t, nil
}

// AblationCombiner compares the unordered local-combiner reduction with
// the ordered collect-then-fold reduction on the same workload: the
// freedom commutativity buys.
func AblationCombiner(cfg Config) (Table, error) {
	t := Table{
		Number:  103,
		Caption: "Ablation: combiner (unordered) vs ordered reduction",
		Headers: []string{"Discipline", "Wall", "Same schema"},
	}
	g, err := dataset.New("twitter")
	if err != nil {
		return Table{}, err
	}
	scales := cfg.scales()
	data := dataset.NDJSON(g, scales[len(scales)-1].N, cfg.seed())
	chunks := jsontext.SplitLines(data, cfg.workers()*4)

	mapFn := func(_ context.Context, chunk []byte) (types.Type, error) {
		ts, err := infer.InferAll(chunk)
		if err != nil {
			return nil, err
		}
		acc := types.Type(types.Empty)
		for _, tt := range ts {
			acc = fusion.Fuse(acc, fusion.Simplify(tt))
		}
		return acc, nil
	}
	var schemas [2]types.Type
	for i, ordered := range []bool{false, true} {
		t0 := time.Now()
		out, _, err := mapreduce.RunSlice(context.Background(), chunks, mapFn, fusion.Fuse,
			types.Type(types.Empty), mapreduce.Config{Workers: cfg.workers(), Ordered: ordered})
		if err != nil {
			return Table{}, err
		}
		schemas[i] = out
		name := "unordered combiner"
		if ordered {
			name = "ordered fold"
		}
		t.Rows = append(t.Rows, []string{name, time.Since(t0).Round(time.Millisecond).String(), ""})
	}
	same := fmt.Sprintf("%v", types.Equal(schemas[0], schemas[1]))
	t.Rows[0][2] = same
	t.Rows[1][2] = same
	return t, nil
}

// AblationStreaming compares the streaming token-level inference decoder
// with parse-then-infer over materialized values.
func AblationStreaming(cfg Config) (Table, error) {
	t := Table{
		Number:  104,
		Caption: "Ablation: streaming inference vs parse-then-infer",
		Headers: []string{"Path", "Wall", "Types"},
	}
	g, err := dataset.New("nytimes")
	if err != nil {
		return Table{}, err
	}
	scales := cfg.scales()
	data := dataset.NDJSON(g, scales[len(scales)-1].N, cfg.seed())

	t0 := time.Now()
	ts, err := infer.InferAll(data)
	if err != nil {
		return Table{}, err
	}
	t.Rows = append(t.Rows, []string{"streaming (tokens -> types)", time.Since(t0).Round(time.Millisecond).String(), fmt.Sprintf("%d", len(ts))})

	t1 := time.Now()
	vs, err := jsontext.ParseAll(data)
	if err != nil {
		return Table{}, err
	}
	ts2 := make([]types.Type, len(vs))
	for i, v := range vs {
		ts2[i] = infer.Infer(v)
	}
	t.Rows = append(t.Rows, []string{"materialize (tokens -> values -> types)", time.Since(t1).Round(time.Millisecond).String(), fmt.Sprintf("%d", len(ts2))})
	return t, nil
}

// AblationReduceShape compares sequential and balanced-tree folds of the
// same type list — the reduction shapes associativity makes equivalent.
func AblationReduceShape(cfg Config) (Table, error) {
	t := Table{
		Number:  105,
		Caption: "Ablation: sequential vs tree reduction of inferred types",
		Headers: []string{"Shape", "Wall", "Fused size"},
	}
	g, err := dataset.New("wikidata")
	if err != nil {
		return Table{}, err
	}
	scales := cfg.scales()
	n := scales[len(scales)-1].N
	if n > 20_000 {
		n = 20_000
	}
	var buf bytes.Buffer
	if _, err := dataset.WriteNDJSON(&buf, g, n, cfg.seed()); err != nil {
		return Table{}, err
	}
	ts, err := infer.InferAll(buf.Bytes())
	if err != nil {
		return Table{}, err
	}
	for i := range ts {
		ts[i] = fusion.Simplify(ts[i])
	}
	t0 := time.Now()
	seq := fusion.FuseAll(ts)
	t.Rows = append(t.Rows, []string{"sequential fold", time.Since(t0).Round(time.Millisecond).String(), fmt.Sprintf("%d", seq.Size())})
	t1 := time.Now()
	tree := fusion.FuseAllTree(ts)
	t.Rows = append(t.Rows, []string{"balanced tree", time.Since(t1).Round(time.Millisecond).String(), fmt.Sprintf("%d", tree.Size())})
	if !types.Equal(seq, tree) {
		return Table{}, fmt.Errorf("reduction shapes disagree: %d vs %d nodes", seq.Size(), tree.Size())
	}
	return t, nil
}

// AblationPositional compares the paper's always-simplify array fusion
// with the positional extension (Section 7 future work): how many
// fixed-shape arrays survive, and what it costs in schema size.
func AblationPositional(cfg Config) (Table, error) {
	t := Table{
		Number:  106,
		Caption: "Ablation: paper array fusion vs positional extension",
		Headers: []string{"Dataset", "Paper size", "Positional size", "Tuples preserved", "Still subschema"},
	}
	scales := cfg.scales()
	n := scales[len(scales)-1].N
	if n > 20_000 {
		n = 20_000
	}
	for _, name := range dataset.PaperNames() {
		paperCfg := cfg
		paperCfg.Fusion = fusion.Options{}
		posCfg := cfg
		posCfg.Fusion = fusion.Options{Tuples: true}
		paper, err := RunPipeline(context.Background(), name, n, paperCfg)
		if err != nil {
			return Table{}, err
		}
		pos, err := RunPipeline(context.Background(), name, n, posCfg)
		if err != nil {
			return Table{}, err
		}
		tuples := 0
		types.Walk(pos.Fused, func(tt types.Type) bool {
			if tup, ok := tt.(*types.Tuple); ok && tup.Len() > 0 {
				tuples++
			}
			return true
		})
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", paper.Fused.Size()),
			fmt.Sprintf("%d", pos.Fused.Size()),
			fmt.Sprintf("%d", tuples),
			fmt.Sprintf("%v", types.Subtype(pos.Fused, paper.Fused)),
		})
	}
	return t, nil
}

// AblationAbstraction measures key abstraction on the fusion-hostile
// dataset: the repair for the Table 4 pathology (Wikidata ids-as-keys).
func AblationAbstraction(cfg Config) (Table, error) {
	t := Table{
		Number:  107,
		Caption: "Ablation: key abstraction on Wikidata (the Table 4 repair)",
		Headers: []string{"Scale", "Concrete fused size", "Abstracted size", "Reduction", "Sound"},
	}
	for _, s := range cfg.scales() {
		n := s.N
		if n > 20_000 {
			n = 20_000
		}
		res, err := RunPipeline(context.Background(), "wikidata", n, cfg)
		if err != nil {
			return Table{}, err
		}
		abstracted := abstraction.Abstract(res.Fused, abstraction.Options{})
		t.Rows = append(t.Rows, []string{
			s.Label,
			fmt.Sprintf("%d", res.Fused.Size()),
			fmt.Sprintf("%d", abstracted.Size()),
			fmt.Sprintf("%.0fx", float64(res.Fused.Size())/float64(abstracted.Size())),
			fmt.Sprintf("%v", types.Subtype(res.Fused, abstracted)),
		})
	}
	return t, nil
}

// AblationTaggedUnions compares the paper's record fusion with the
// tagged-union strategy (docs/UNIONS.md) on the four paper datasets
// plus the two discriminator-heavy generators: the precision the
// discriminated variants buy (optional-field markers that disappear
// because fields no longer blur across variants) and what it costs in
// schema size. "Still subschema" checks that the tagged schema admits
// only values the paper schema admits — tagged inference refines, never
// widens.
func AblationTaggedUnions(cfg Config) (Table, error) {
	t := Table{
		Number:  109,
		Caption: "Ablation: paper record fusion vs tagged-union strategy",
		Headers: []string{"Dataset", "Paper size", "Tagged size", "Unions", "Cases", "Optional fields (paper)", "Optional fields (tagged)", "Still subschema"},
	}
	scales := cfg.scales()
	n := scales[len(scales)-1].N
	if n > 20_000 {
		n = 20_000
	}
	names := append(dataset.PaperNames(), "eventlog", "webhook")
	for _, name := range names {
		paperCfg := cfg
		paperCfg.Fusion = fusion.Options{}
		taggedCfg := cfg
		taggedCfg.Fusion = fusion.Options{Tagged: true}
		paper, err := RunPipeline(context.Background(), name, n, paperCfg)
		if err != nil {
			return Table{}, err
		}
		tagged, err := RunPipeline(context.Background(), name, n, taggedCfg)
		if err != nil {
			return Table{}, err
		}
		unions, cases := 0, 0
		types.Walk(tagged.Fused, func(tt types.Type) bool {
			if v, ok := tt.(*types.Variants); ok {
				unions++
				cases += v.Len()
			}
			return true
		})
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%d", paper.Fused.Size()),
			fmt.Sprintf("%d", tagged.Fused.Size()),
			fmt.Sprintf("%d", unions),
			fmt.Sprintf("%d", cases),
			fmt.Sprintf("%d", countOptional(paper.Fused)),
			fmt.Sprintf("%d", countOptional(tagged.Fused)),
			fmt.Sprintf("%v", types.Subtype(tagged.Fused, paper.Fused)),
		})
	}
	return t, nil
}

// countOptional counts the optional-field markers of a schema — the
// per-field imprecision tagged unions exist to remove.
func countOptional(t types.Type) int {
	n := 0
	types.Walk(t, func(tt types.Type) bool {
		if r, ok := tt.(*types.Record); ok {
			for _, f := range r.Fields() {
				if f.Optional {
					n++
				}
			}
		}
		return true
	})
	return n
}

// AblationReplication sweeps the HDFS replication factor on the skewed
// placement of Table 7: the pathology the paper hit presumes the
// effective replication was 1 (a manually copied dataset); with HDFS's
// default three copies, most blocks would have had a local replica
// somewhere and the cluster would not have starved.
func AblationReplication(cfg Config) (Table, error) {
	mbps, err := MeasureComputeMBps("nytimes", cfg)
	if err != nil {
		return Table{}, err
	}
	sim := cluster.PaperCluster(mbps)
	sizes := cluster.SplitBytes(22e9, 176)
	t := Table{
		Number:  108,
		Caption: "Ablation: replication factor under skewed primary placement (simulated)",
		Headers: []string{"Replicas", "Makespan", "Nodes used", "Utilization"},
	}
	for _, k := range []int{1, 2, 3} {
		rep, err := cluster.Run(sim, cluster.PlaceBlocksReplicated(sizes, cluster.PlaceAllOnOne, len(sim.Nodes), k))
		if err != nil {
			return Table{}, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k),
			rep.Makespan.Round(time.Second).String(),
			fmt.Sprintf("%d/%d", rep.NodesUsed, len(sim.Nodes)),
			fmt.Sprintf("%.0f%%", 100*rep.Utilization(sim.TotalCores())),
		})
	}
	return t, nil
}

// Ablations runs every ablation.
func Ablations(cfg Config) ([]Table, error) {
	fns := []func(Config) (Table, error){
		AblationSuccinctness,
		AblationPrecision,
		AblationCombiner,
		AblationStreaming,
		AblationReduceShape,
		AblationPositional,
		AblationAbstraction,
		AblationReplication,
		AblationTaggedUnions,
	}
	out := make([]Table, 0, len(fns))
	for _, fn := range fns {
		t, err := fn(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
