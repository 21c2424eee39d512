package main

// A metricDef names one metric the benchmark prints. BENCHMARK.json at
// the repository root lists the same names, units and directions; a
// test keeps the two in step.
type metricDef struct {
	Name, Unit string
	// Better is "lower" or "higher": the direction of an improvement.
	Better string
}

// endToEnd are the gated metrics: what a user of the library or of
// schemad sees, measured with tracing off, steady enough from run to
// run to hold a bound. Op latency and throughput are measured in every
// run too, but they head the per-layer list: on the 2-core reference
// host their run-to-run spread is larger than any bound the benchmark
// may set (bench/README.md has the calibration).
var endToEnd = []metricDef{
	{"peak_rss_mib", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the ungated metrics: the untraced op metrics, then the
// single layers from the traced replay (runtime.* from the untraced
// rounds, bench.* are diagnostics). bench/README.md maps each layer to
// the op metric it should move.
var perLayer = []metricDef{
	{"op_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"read_ms", "ms", "lower"},
	{"records_per_s", "records/s", "higher"},
	{"jsontext.lex_ms", "ms", "lower"},
	{"jsontext.lex_mb_s", "MB/s", "higher"},
	{"jsontext.chunk_ms", "ms", "lower"},
	{"jsontext.tokens", "count", "lower"},
	{"infer.decode_ms", "ms", "lower"},
	{"infer.alloc_mib", "MiB", "lower"},
	{"infer.records", "count", "higher"},
	{"intern.dedup_decode_ms", "ms", "lower"},
	{"intern.hit_ratio", "ratio", "higher"},
	{"intern.nodes", "count", "lower"},
	{"intern.distinct_types", "count", "lower"},
	{"fusion.simplify_ms", "ms", "lower"},
	{"fusion.fuse_ms", "ms", "lower"},
	{"fusion.memo_fuse_ms", "ms", "lower"},
	{"fusion.memo_hit_ratio", "ratio", "higher"},
	{"fusion.fused_size", "count", "lower"},
	{"pipeline.add_ms", "ms", "lower"},
	{"pipeline.merge_ms", "ms", "lower"},
	{"pipeline.fold_ms", "ms", "lower"},
	{"mapreduce.map_ms", "ms", "lower"},
	{"mapreduce.queue_wait_ms", "ms", "lower"},
	{"mapreduce.combine_ms", "ms", "lower"},
	{"mapreduce.utilization_pct", "%", "higher"},
	{"mapreduce.tasks", "count", "higher"},
	{"jsonschema.export_ms", "ms", "lower"},
	{"jsonschema.bytes", "bytes", "lower"},
	{"types.codec_ms", "ms", "lower"},
	{"types.member_ms", "ms", "lower"},
	{"serving.ingest_infer_ms", "ms", "lower"},
	{"serving.append_ms", "ms", "lower"},
	{"serving.repo_schema_ms", "ms", "lower"},
	{"serving.schema_get_ms", "ms", "lower"},
	{"serving.http_overhead_ms", "ms", "lower"},
	{"runtime.alloc_mib_per_op", "MiB", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_per_op", "count", "lower"},
	{"runtime.cpu_ms_per_op", "ms", "lower"},
	{"bench.unattributed_pct", "%", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.host_ref_ms", "ms", "lower"},
	{"bench.gen_s", "s", "lower"},
}

// A measurement is one printed metric: its value and, for metrics
// summarizing samples, their count and quartiles.
type measurement struct {
	metricDef
	Value float64
	// N is the number of samples behind Value (1 for a single reading).
	N          int
	Q1, Q2, Q3 float64
}

// fromSamples summarizes samples whose reported value is their median.
func fromSamples(def metricDef, xs []float64) measurement {
	q1, q2, q3 := quartiles(xs)
	return measurement{metricDef: def, Value: q2, N: len(xs), Q1: q1, Q2: q2, Q3: q3}
}

// single is a metric read once.
func single(def metricDef, v float64) measurement {
	return measurement{metricDef: def, Value: v, N: 1, Q1: v, Q2: v, Q3: v}
}

// lookupDef returns the catalog entry of name.
func lookupDef(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
