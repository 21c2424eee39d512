package jsoninference

import "repro/internal/obs"

// Metrics is a point-in-time snapshot of a Collector: counters
// (monotonic totals such as records and bytes processed), gauges
// (last-value measurements such as the fused schema size) and
// histograms (distributions such as per-chunk map latencies or
// per-chunk fused sizes — the fusion-growth curve).
//
// Snapshots are plain values. They merge with Merge — counters add,
// gauges keep the maximum, histograms add bucket-wise — and the merge
// is commutative and associative with the zero Metrics as identity,
// the same algebra as schema fusion, so metrics from parallel or
// partitioned runs reduce in any order.
//
// Metric names are stable and documented in docs/OBSERVABILITY.md.
// Names ending in _ns, _permille or _per_sec depend on host timing;
// WithoutTimings strips them, and what remains is byte-for-byte
// reproducible (via MarshalJSON) across runs over the same input with
// the same configuration. WithoutFaults strips the fault-handling
// metrics (docs/FAULTS.md) and WithoutCache the cache-effectiveness
// counters, which depend on scheduling.
type Metrics = obs.Metrics

// Histogram is a frozen fixed-bucket exponential histogram: bucket i
// holds observed values of bit length i, with inclusive upper bound
// 2^i - 1 (bound 0 holds zero and negative values).
type Histogram = obs.HistogramSnapshot

// HistogramBucket is one non-empty histogram bucket.
type HistogramBucket = obs.Bucket

// Collector accumulates pipeline metrics across one or more inference
// runs. Install one with Options.Collector; Metrics returns a snapshot
// at any time, including mid-run from another goroutine (cmd/jsoninfer
// serves exactly that through its -debug-addr expvar endpoint). The
// zero value is not ready; use NewCollector.
type Collector struct {
	reg *obs.Registry
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{reg: obs.NewRegistry()} }

// Metrics snapshots everything recorded so far. Safe to call
// concurrently with a running inference; mid-run snapshots are
// monotonic but may tear across metrics (each value is individually
// atomic, the set is not).
func (c *Collector) Metrics() Metrics { return c.reg.Snapshot() }

// recorder exposes the internal registry to the pipeline. A nil
// Collector yields a nil Recorder (the universal "don't record").
func (c *Collector) recorder() obs.Recorder {
	if c == nil {
		return nil
	}
	return c.reg
}
