package obs

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/enrich/monoidtest"
)

// randomMetrics builds a small random snapshot over a fixed name
// alphabet so merges collide on names, the interesting case.
func randomMetrics(r *rand.Rand) Metrics {
	names := []string{"alpha", "beta", "gamma", "delta_ns", "eps_per_sec"}
	m := Metrics{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, n := range names {
		if r.Intn(2) == 0 {
			m.Counters[n] = int64(r.Intn(1000))
		}
		if r.Intn(2) == 0 {
			m.Gauges[n] = int64(r.Intn(1000) - 500)
		}
		if r.Intn(2) == 0 {
			h := HistogramSnapshot{}
			for i := 0; i < r.Intn(5); i++ {
				le := BucketBound(r.Intn(12))
				// Keep bounds unique and ascending.
				if k := len(h.Buckets); k > 0 && h.Buckets[k-1].Le >= le {
					continue
				}
				c := int64(r.Intn(50) + 1)
				h.Buckets = append(h.Buckets, Bucket{Le: le, Count: c})
				h.Count += c
				h.Sum += c * le
			}
			m.Histograms[n] = h
		}
	}
	return m
}

func metricsJSON(t *testing.T, m Metrics) string {
	t.Helper()
	b, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMergeConformance property-tests the snapshot monoid through the
// shared harness: identity, commutativity, associativity, random merge
// trees versus the sequential fold, non-mutation, and serialization
// round-trips — the laws that let per-partition metrics reduce in any
// order. (Metrics.Merge is pure, which is stricter than the harness's
// may-mutate-first contract; the suite holds a fortiori.)
func TestMergeConformance(t *testing.T) {
	monoidtest.Run(t, monoidtest.Subject{
		Name:  "metrics",
		Empty: func() any { return Metrics{} },
		Rand:  func(r *rand.Rand) any { return randomMetrics(r) },
		Merge: func(a, b any) any { return a.(Metrics).Merge(b.(Metrics)) },
		Fingerprint: func(x any) string {
			return metricsJSON(t, x.(Metrics))
		},
		Marshal: func(x any) ([]byte, error) { return x.(Metrics).MarshalJSON() },
		Unmarshal: func(data []byte) (any, error) {
			var m Metrics
			if err := json.Unmarshal(data, &m); err != nil {
				return nil, err
			}
			return m, nil
		},
	})
}

func TestMergeSemantics(t *testing.T) {
	a := Metrics{
		Counters:   map[string]int64{"c": 3},
		Gauges:     map[string]int64{"g": 10},
		Histograms: map[string]HistogramSnapshot{"h": {Count: 2, Sum: 4, Buckets: []Bucket{{Le: 3, Count: 2}}}},
	}
	b := Metrics{
		Counters:   map[string]int64{"c": 5, "d": 1},
		Gauges:     map[string]int64{"g": 7},
		Histograms: map[string]HistogramSnapshot{"h": {Count: 1, Sum: 9, Buckets: []Bucket{{Le: 15, Count: 1}}}},
	}
	m := a.Merge(b)
	if m.Counters["c"] != 8 || m.Counters["d"] != 1 {
		t.Errorf("counters = %v, want c=8 d=1", m.Counters)
	}
	if m.Gauges["g"] != 10 {
		t.Errorf("gauge g = %d, want max 10", m.Gauges["g"])
	}
	h := m.Histograms["h"]
	if h.Count != 3 || h.Sum != 13 || len(h.Buckets) != 2 {
		t.Errorf("histogram = %+v, want count 3 sum 13 two buckets", h)
	}
}

func TestWithoutTimings(t *testing.T) {
	m := Metrics{
		Counters:   map[string]int64{"infer_records": 10, "infer_wall_ns": 123},
		Gauges:     map[string]int64{"mapreduce_workers": 4, "mapreduce_utilization_permille": 900, "infer_bytes_per_sec": 5},
		Histograms: map[string]HistogramSnapshot{"mapreduce_task_ns": {Count: 1}, "infer_chunk_fused_size": {Count: 1}},
	}
	got := m.WithoutTimings()
	if _, ok := got.Counters["infer_wall_ns"]; ok {
		t.Error("timing counter survived WithoutTimings")
	}
	if _, ok := got.Gauges["mapreduce_utilization_permille"]; ok {
		t.Error("permille gauge survived WithoutTimings")
	}
	if _, ok := got.Gauges["infer_bytes_per_sec"]; ok {
		t.Error("per_sec gauge survived WithoutTimings")
	}
	if _, ok := got.Histograms["mapreduce_task_ns"]; ok {
		t.Error("ns histogram survived WithoutTimings")
	}
	if got.Counters["infer_records"] != 10 || got.Gauges["mapreduce_workers"] != 4 {
		t.Error("non-timing metrics were dropped")
	}
	if _, ok := got.Histograms["infer_chunk_fused_size"]; !ok {
		t.Error("size histogram was dropped")
	}
}

func TestIsFaultMetric(t *testing.T) {
	faulty := []string{
		"mapreduce_retries", "mapreduce_skipped",
		"mapreduce_faults_injected", "cluster_retried_tasks",
		"cluster_crashed_nodes", "cluster_retry_lost_virtual",
	}
	for _, name := range faulty {
		if !IsFaultMetric(name) {
			t.Errorf("IsFaultMetric(%q) = false, want true", name)
		}
	}
	clean := []string{
		"mapreduce_tasks", "mapreduce_workers", "infer_records",
		"infer_chunks", "cluster_tasks", "cluster_makespan_virtual",
		"experiments_records",
	}
	for _, name := range clean {
		if IsFaultMetric(name) {
			t.Errorf("IsFaultMetric(%q) = true, want false", name)
		}
	}
}

func TestWithoutCache(t *testing.T) {
	m := Metrics{
		Counters:   map[string]int64{"infer_records": 10, "infer_absorbed_records": 7},
		Histograms: map[string]HistogramSnapshot{"infer_chunk_records": {Count: 2}, "infer_chunk_fused_size": {Count: 2}},
	}
	got := m.WithoutCache()
	if _, ok := got.Counters["infer_absorbed_records"]; ok {
		t.Error("infer_absorbed_records survived WithoutCache")
	}
	if _, ok := got.Histograms["infer_chunk_fused_size"]; ok {
		t.Error("infer_chunk_fused_size survived WithoutCache")
	}
	if got.Counters["infer_records"] != 10 || got.Histograms["infer_chunk_records"].Count != 2 {
		t.Error("WithoutCache dropped a metric that does not depend on absorption")
	}
}

func TestWithoutFaults(t *testing.T) {
	r := NewRegistry()
	r.Add("mapreduce_tasks", 10)
	r.Add("mapreduce_retries", 3)
	r.Add("mapreduce_skipped", 1)
	r.Set("cluster_crashed_nodes", 2)
	r.Set("infer_fused_size", 77)
	r.Observe("infer_chunk_records", 5)
	m := r.Snapshot().WithoutFaults()
	if _, ok := m.Counters["mapreduce_retries"]; ok {
		t.Error("mapreduce_retries survived WithoutFaults")
	}
	if _, ok := m.Counters["mapreduce_skipped"]; ok {
		t.Error("mapreduce_skipped survived WithoutFaults")
	}
	if _, ok := m.Gauges["cluster_crashed_nodes"]; ok {
		t.Error("cluster_crashed_nodes survived WithoutFaults")
	}
	if m.Counters["mapreduce_tasks"] != 10 {
		t.Errorf("mapreduce_tasks = %d, want 10", m.Counters["mapreduce_tasks"])
	}
	if m.Gauges["infer_fused_size"] != 77 {
		t.Errorf("infer_fused_size = %d, want 77", m.Gauges["infer_fused_size"])
	}
	if m.Histograms["infer_chunk_records"].Count != 1 {
		t.Error("clean histogram dropped by WithoutFaults")
	}
	// WithoutFaults must not mutate the receiver.
	orig := r.Snapshot()
	_ = orig.WithoutFaults()
	if _, ok := orig.Counters["mapreduce_retries"]; !ok {
		t.Error("WithoutFaults mutated its receiver")
	}
}
