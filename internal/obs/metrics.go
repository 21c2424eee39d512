package obs

import (
	"encoding/json"
	"sort"
	"strings"
)

// Metrics is a point-in-time snapshot of a Registry: a plain,
// serializable value. Snapshots form a commutative monoid under Merge
// (identity: the zero Metrics), mirroring the fusion algebra the
// pipeline itself is built on, so per-partition metrics can be reduced
// in any order and the result is independent of scheduling.
type Metrics struct {
	// Counters holds monotonic totals; Merge adds them.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Gauges holds last-value measurements; Merge keeps the maximum
	// (the only merge that is commutative, associative and idempotent
	// without retaining per-sample history).
	Gauges map[string]int64 `json:"gauges,omitempty"`
	// Histograms holds value distributions; Merge adds bucket-wise.
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is the frozen state of one Histogram.
type HistogramSnapshot struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// Sum is the sum of all observed values.
	Sum int64 `json:"sum"`
	// Buckets holds the non-empty buckets in ascending bound order.
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one non-empty histogram bucket.
type Bucket struct {
	// Le is the bucket's inclusive upper bound (2^i - 1 for bucket i;
	// 0 for the bucket of non-positive values).
	Le int64 `json:"le"`
	// Count is the number of observations in the bucket.
	Count int64 `json:"count"`
}

// Merge combines two snapshots without mutating either: counters add,
// gauges keep the maximum, histograms add bucket-wise. Merge is
// commutative and associative with the zero Metrics as identity
// (property-tested in metrics_test.go), so snapshots from parallel
// partitions reduce in any order — the same contract as type fusion.
func (m Metrics) Merge(other Metrics) Metrics {
	out := Metrics{
		Counters:   make(map[string]int64, len(m.Counters)+len(other.Counters)),
		Gauges:     make(map[string]int64, len(m.Gauges)+len(other.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(m.Histograms)+len(other.Histograms)),
	}
	for name, v := range m.Counters {
		out.Counters[name] = v
	}
	for name, v := range other.Counters {
		out.Counters[name] += v
	}
	for name, v := range m.Gauges {
		out.Gauges[name] = v
	}
	for name, v := range other.Gauges {
		if cur, ok := out.Gauges[name]; !ok || v > cur {
			out.Gauges[name] = v
		}
	}
	for name, h := range m.Histograms {
		out.Histograms[name] = cloneHistogram(h)
	}
	for name, h := range other.Histograms {
		out.Histograms[name] = mergeHistograms(out.Histograms[name], h)
	}
	return out
}

func cloneHistogram(h HistogramSnapshot) HistogramSnapshot {
	out := h
	out.Buckets = append([]Bucket(nil), h.Buckets...)
	return out
}

// mergeHistograms adds two snapshots bucket-wise, keeping the ascending
// bound order canonical.
func mergeHistograms(a, b HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	byLe := make(map[int64]int64, len(a.Buckets)+len(b.Buckets))
	for _, bk := range a.Buckets {
		byLe[bk.Le] += bk.Count
	}
	for _, bk := range b.Buckets {
		byLe[bk.Le] += bk.Count
	}
	bounds := make([]int64, 0, len(byLe))
	for le := range byLe {
		bounds = append(bounds, le)
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	for _, le := range bounds {
		out.Buckets = append(out.Buckets, Bucket{Le: le, Count: byLe[le]})
	}
	return out
}

// faultSuffixes lists the name suffixes that mark a metric as counting
// failure handling: retries, quarantined (skipped) tasks, injected
// faults and simulated crashes. The convention spans the recording
// components — mapreduce_retries, mapreduce_skipped,
// mapreduce_faults_injected,
// cluster_retried_tasks, cluster_crashed_nodes,
// cluster_retry_lost_virtual — and docs/FAULTS.md documents it.
var faultSuffixes = []string{
	"_retries",
	"_retried_tasks",
	"_skipped",
	"_faults_injected",
	"_crashed_nodes",
	"_retry_lost_virtual",
}

// IsFaultMetric reports whether the named metric counts failure
// handling rather than useful work. A run that suffered only
// transient, successfully retried faults records exactly the same
// non-timing metrics as a clean run EXCEPT these — the equality the
// chaos harness asserts via WithoutFaults.
func IsFaultMetric(name string) bool {
	for _, s := range faultSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

// WithoutFaults returns a copy of the snapshot with every
// fault-handling metric removed (see IsFaultMetric). Composed with
// WithoutTimings, what remains must be identical between a clean run
// and a run whose transient faults were all retried to success.
func (m Metrics) WithoutFaults() Metrics { return m.without(IsFaultMetric) }

// IsCacheMetric reports whether the named metric measures how much of
// a run's input the schema already covered rather than the input
// itself: the records absorbed without typing (infer_absorbed_records)
// and the per-chunk fused sizes (infer_chunk_fused_size), which leave
// the absorbed records out. A chunk absorbs against the schema of the
// chunks mapped before it, so these are exact only on a single-worker
// fault-free run: under concurrency or retries, which chunks came
// first depends on scheduling. Determinism comparisons strip them via
// WithoutCache.
func IsCacheMetric(name string) bool {
	return name == "infer_absorbed_records" || name == "infer_chunk_fused_size"
}

// WithoutCache returns a copy of the snapshot with every metric
// IsCacheMetric names removed. Composed with WithoutTimings, what
// remains must not depend on which records a run's chunks absorbed.
func (m Metrics) WithoutCache() Metrics { return m.without(IsCacheMetric) }

// IsTimingMetric reports whether the named metric depends on host
// timing rather than on the input alone: by convention such names end
// in _ns (durations), _permille (time-derived ratios) or _per_sec
// (throughputs). Everything else — counts, sizes — is deterministic
// for a fixed input and configuration.
func IsTimingMetric(name string) bool {
	return strings.HasSuffix(name, "_ns") ||
		strings.HasSuffix(name, "_permille") ||
		strings.HasSuffix(name, "_per_sec")
}

// WithoutTimings returns a copy of the snapshot with every
// timing-dependent metric removed (see IsTimingMetric). What remains
// is byte-for-byte reproducible across runs over the same input with
// the same configuration — the determinism tests compare exactly this.
func (m Metrics) WithoutTimings() Metrics { return m.without(IsTimingMetric) }

// without returns a copy of the snapshot with every metric whose name
// satisfies drop removed.
func (m Metrics) without(drop func(name string) bool) Metrics {
	out := Metrics{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for name, v := range m.Counters {
		if !drop(name) {
			out.Counters[name] = v
		}
	}
	for name, v := range m.Gauges {
		if !drop(name) {
			out.Gauges[name] = v
		}
	}
	for name, h := range m.Histograms {
		if !drop(name) {
			out.Histograms[name] = cloneHistogram(h)
		}
	}
	return out
}

// MarshalJSON renders the snapshot deterministically: encoding/json
// sorts map keys and buckets are stored in ascending bound order.
func (m Metrics) MarshalJSON() ([]byte, error) {
	// An alias drops the method set so the default struct encoding
	// applies without recursing into this method.
	type plain Metrics
	return json.Marshal(plain(m))
}
