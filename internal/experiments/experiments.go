// Package experiments is the harness that regenerates every table of the
// paper's evaluation (Section 6, Tables 1-8). It is shared by the
// benchtables command and the repository's benchmarks so each experiment
// has exactly one implementation.
//
// Scales: the paper uses 1K/10K/100K/1M-record sub-datasets. Because the
// synthetic generators are deterministic and sub-datasets are prefixes,
// any scale reproduces the same qualitative shape; the harness defaults
// to the scales given in Config and callers (CLI flag, JSI_MAX_SCALE
// environment variable) choose how far up the ladder to climb.
package experiments

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"

	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/types"
)

// Scale is one rung of the evaluation ladder.
type Scale struct {
	Label string
	N     int
}

// PaperScales are the sub-dataset sizes of Table 1.
var PaperScales = []Scale{
	{"1K", 1_000},
	{"10K", 10_000},
	{"100K", 100_000},
	{"1M", 1_000_000},
}

// Config parameterizes a harness run.
type Config struct {
	// Scales to evaluate; defaults to ScalesUpTo(DefaultMaxScale()).
	Scales []Scale
	// Seed for the dataset generators.
	Seed int64
	// Workers for the map-reduce engine; 0 means GOMAXPROCS.
	Workers int
	// Fusion selects the fusion policy; the zero value is the paper's
	// algorithm, fusion.Tuples the positional-array extension.
	Fusion fusion.Options
	// Recorder, when non-nil, receives the experiments_* metrics of
	// docs/OBSERVABILITY.md and everything the pipeline records: its
	// infer_* stage timings and the map-reduce engine's mapreduce_*
	// metrics.
	Recorder obs.Recorder
	// Failure is the map-reduce failure policy for the pipeline runs;
	// the zero value fail-fasts, matching the paper's Spark runs on
	// clean data. See docs/FAULTS.md.
	Failure mapreduce.FailurePolicy
	// Injector, when non-nil, deterministically injects faults into the
	// map phase — the chaos harness's entry point into the experiments.
	Injector mapreduce.FaultInjector
}

// DefaultMaxScale reads the JSI_MAX_SCALE environment variable (a record
// count) and defaults to 10000: large enough to show every trend, small
// enough for CI. Set JSI_MAX_SCALE=1000000 to run the full paper ladder.
func DefaultMaxScale() int {
	if s := os.Getenv("JSI_MAX_SCALE"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 10_000
}

// ScalesUpTo returns the paper scales not exceeding max, always
// including at least the smallest.
func ScalesUpTo(max int) []Scale {
	var out []Scale
	for _, s := range PaperScales {
		if s.N <= max || len(out) == 0 {
			out = append(out, s)
		}
	}
	return out
}

func (c Config) scales() []Scale {
	if len(c.Scales) > 0 {
		return c.Scales
	}
	return ScalesUpTo(DefaultMaxScale())
}

func (c Config) seed() int64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 20170321 // EDBT 2017, Venice
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PipelineResult is the outcome of running the full two-phase pipeline
// (Section 5) over one dataset at one scale.
type PipelineResult struct {
	Dataset string
	N       int
	// Bytes is the NDJSON size of the input (the Table 1 measurement).
	Bytes int64
	// Result holds the fused schema, whose Size is the "fused type size"
	// column, and the record count and distinct/min/max/avg type
	// measurements of Tables 2-5.
	pipeline.Result
	// InferTime is the total time spent parsing + inferring types
	// (summed across workers), FuseTime the total time fusing, and Wall
	// the end-to-end elapsed time — the Table 6 measurements.
	InferTime, FuseTime, Wall time.Duration
	// Retries and Quarantined report the run's fault handling:
	// re-executed map attempts and tasks dropped under the Skip policy.
	// Both are zero on a fault-free run.
	Retries, Quarantined int
}

// RunPipeline generates the dataset at the given scale and runs
// inference + fusion over it with the map-reduce engine, measuring the
// phases separately. The context cancels the underlying map-reduce run.
func RunPipeline(ctx context.Context, name string, n int, cfg Config) (PipelineResult, error) {
	g, err := dataset.New(name)
	if err != nil {
		return PipelineResult{}, err
	}
	data := dataset.NDJSON(g, n, cfg.seed())
	res, err := RunPipelineOverNDJSON(ctx, data, cfg)
	if err != nil {
		return PipelineResult{}, fmt.Errorf("experiments: %s at %d records: %w", name, n, err)
	}
	res.Dataset = name
	res.N = n
	return res, nil
}

// RunPipelineOverNDJSON runs the two-phase pipeline over raw NDJSON —
// the same internal/pipeline engine the public Infer entry points use —
// and reads the Table 6 split from the stage timings the engine records
// into a per-run registry: parse+infer is infer_decode_ns, fusion is
// infer_fuse_ns plus the mapreduce_combine_ns sum, both summed across
// workers. The context cancels the underlying map-reduce run.
func RunPipelineOverNDJSON(ctx context.Context, data []byte, cfg Config) (PipelineResult, error) {
	chunks := jsontext.SplitLines(data, cfg.workers()*4)
	reg := obs.NewRegistry()
	env := &pipeline.Env{
		Fusion:   cfg.Fusion,
		Workers:  cfg.workers(),
		Failure:  cfg.Failure,
		Injector: cfg.Injector,
		Rec:      obs.Tee(reg, cfg.Recorder),
	}

	wall0 := time.Now()
	out, mrst, err := pipeline.Run(ctx, env, pipeline.SliceFeed(chunks))
	if err != nil {
		return PipelineResult{}, err
	}
	res := PipelineResult{
		Bytes:       int64(len(data)),
		Result:      pipeline.Fold(out),
		InferTime:   time.Duration(reg.Counter("infer_decode_ns").Load()),
		FuseTime:    time.Duration(reg.Counter("infer_fuse_ns").Load() + reg.Histogram("mapreduce_combine_ns").Sum()),
		Wall:        time.Since(wall0),
		Retries:     mrst.Retries,
		Quarantined: len(mrst.Quarantined),
	}
	if rec := cfg.Recorder; rec != nil {
		rec.Add("experiments_records", res.Records)
		rec.Add("experiments_bytes", res.Bytes)
		rec.Add("experiments_wall_ns", int64(res.Wall))
	}
	return res, nil
}

// MeasureComputeMBps calibrates the cluster simulator: it measures the
// host's single-core inference throughput (MB/s) on a sample of the
// given dataset, so simulated times have a defensible magnitude.
func MeasureComputeMBps(name string, cfg Config) (float64, error) {
	g, err := dataset.New(name)
	if err != nil {
		return 0, err
	}
	data := dataset.NDJSON(g, 2_000, cfg.seed())
	t0 := time.Now()
	ts, err := infer.InferAll(data)
	if err != nil {
		return 0, err
	}
	acc := types.Type(types.Empty)
	for _, t := range ts {
		acc = fusion.Fuse(acc, fusion.Simplify(t))
	}
	el := time.Since(t0).Seconds()
	if el <= 0 {
		el = 1e-9
	}
	return float64(len(data)) / 1e6 / el, nil
}
