package jsoninference

import (
	"encoding/json"

	"repro/internal/obs"
)

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
// the same configuration.
type Metrics struct {
	// Counters holds monotonic totals; merging adds them.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges holds last-value measurements; merging keeps the maximum.
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Histograms holds value distributions; merging adds bucket-wise.
	Histograms map[string]Histogram `json:"histograms,omitempty"`
}

// Histogram is a frozen fixed-bucket exponential histogram: bucket i
// holds observed values of bit length i, with inclusive upper bound
// 2^i - 1 (bound 0 holds zero and negative values).
type Histogram struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum int64 `json:"sum"`
	// Buckets holds the non-empty buckets in ascending bound order.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// HistogramBucket is one non-empty histogram bucket.
type HistogramBucket struct {
	// Le is the bucket's inclusive upper bound.
	Le int64 `json:"le"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"count"`
}

// metricsFromObs deep-copies an internal snapshot into the public type.
func metricsFromObs(m obs.Metrics) Metrics {
	out := Metrics{
		Counters:   make(map[string]int64, len(m.Counters)),
		Gauges:     make(map[string]int64, len(m.Gauges)),
		Histograms: make(map[string]Histogram, len(m.Histograms)),
	}
	for name, v := range m.Counters {
		out.Counters[name] = v
	}
	for name, v := range m.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range m.Histograms {
		ph := Histogram{Count: h.Count, Sum: h.Sum}
		for _, b := range h.Buckets {
			ph.Buckets = append(ph.Buckets, HistogramBucket{Le: b.Le, Count: b.Count})
		}
		out.Histograms[name] = ph
	}
	return out
}

// toObs converts back for the merge implementation in internal/obs.
func (m Metrics) toObs() obs.Metrics {
	out := obs.Metrics{
		Counters:   make(map[string]int64, len(m.Counters)),
		Gauges:     make(map[string]int64, len(m.Gauges)),
		Histograms: make(map[string]obs.HistogramSnapshot, len(m.Histograms)),
	}
	for name, v := range m.Counters {
		out.Counters[name] = v
	}
	for name, v := range m.Gauges {
		out.Gauges[name] = v
	}
	for name, h := range m.Histograms {
		oh := obs.HistogramSnapshot{Count: h.Count, Sum: h.Sum}
		for _, b := range h.Buckets {
			oh.Buckets = append(oh.Buckets, obs.Bucket{Le: b.Le, Count: b.Count})
		}
		out.Histograms[name] = oh
	}
	return out
}

// Merge combines two snapshots without mutating either. The operation
// is commutative and associative with the zero Metrics as identity, so
// snapshots from partitioned runs can be reduced in any order.
func (m Metrics) Merge(other Metrics) Metrics {
	return metricsFromObs(obs.Merge(m.toObs(), other.toObs()))
}

// WithoutTimings returns a copy with every timing-dependent metric
// (names ending in _ns, _permille or _per_sec) removed. The result is
// deterministic for a fixed input and configuration.
func (m Metrics) WithoutTimings() Metrics {
	return metricsFromObs(m.toObs().WithoutTimings())
}

// WithoutFaults returns a copy with every fault-handling metric
// (retries, timeouts, quarantined chunks, injected faults, simulated
// crashes) removed. Composed with WithoutTimings, what remains is
// identical between a clean run and a run whose transient faults were
// all retried to success — the invariant the chaos harness in
// internal/chaos asserts (see docs/FAULTS.md).
func (m Metrics) WithoutFaults() Metrics {
	return metricsFromObs(m.toObs().WithoutFaults())
}

// WithoutCache returns a copy with every cache-effectiveness metric
// (intern_hits/intern_misses and the fuse/simplify cache counters)
// removed. Chunked runs record those counters whenever a chunk interns,
// and they depend on scheduling: which chunks intern follows a shared
// decision, racing workers may double-compute an entry, and re-parsed
// chunks re-intern their types. Composed with WithoutTimings, what
// remains is deterministic for a fixed input, whichever chunks interned
// — the invariant the differential tests assert.
func (m Metrics) WithoutCache() Metrics {
	return metricsFromObs(m.toObs().WithoutCache())
}

// MarshalJSON renders the snapshot deterministically: map keys sort
// and buckets are stored in ascending bound order.
func (m Metrics) MarshalJSON() ([]byte, error) {
	type plain Metrics
	return json.Marshal(plain(m))
}

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
func (c *Collector) Metrics() Metrics { return metricsFromObs(c.reg.Snapshot()) }

// recorder exposes the internal registry to the pipeline. A nil
// Collector yields a nil Recorder (the universal "don't record").
func (c *Collector) recorder() obs.Recorder {
	if c == nil {
		return nil
	}
	return c.reg
}
