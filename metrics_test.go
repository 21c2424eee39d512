package jsoninference_test

import (
	"context"
	"encoding/json"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
)

// TestMetricsDeterministic runs the same inference twice with fixed
// parallelism and asserts the two metric snapshots are byte-identical
// once timing-dependent metrics (_ns, _permille, _per_sec) and the
// intern and memo cache counters, which follow which chunks interned,
// are stripped: chunk counts, record counts, byte counts and the
// fusion-growth histogram must not depend on scheduling.
func TestMetricsDeterministic(t *testing.T) {
	g, err := dataset.New("github")
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.NDJSON(g, 400, 7)
	opts := jsi.Options{Workers: 4}

	snapshot := func() []byte {
		t.Helper()
		c := jsi.NewCollector()
		o := opts
		o.Collector = c
		if _, _, err := jsi.Infer(context.Background(), jsi.FromBytes(data), o); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(c.Metrics().WithoutTimings().WithoutCache())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	first := snapshot()
	second := snapshot()
	if string(first) != string(second) {
		t.Errorf("metrics differ between identical runs:\n%s\nvs\n%s", first, second)
	}
	// The deterministic remainder must still be substantive.
	var m jsi.Metrics
	if err := json.Unmarshal(first, &m); err != nil {
		t.Fatal(err)
	}
	if m.Counters["infer_records"] != 400 || m.Counters["infer_chunks"] == 0 {
		t.Errorf("deterministic metrics incomplete: %s", first)
	}
	if _, ok := m.Histograms["infer_chunk_fused_size"]; !ok {
		t.Errorf("fusion-growth histogram missing: %s", first)
	}
}

// TestPublicMetricsMerge spot-checks the merge algebra through the
// public names (the full property tests live in internal/obs): counters
// add, gauges max, histograms add bucket-wise, inputs stay untouched,
// and the zero Metrics is an identity.
func TestPublicMetricsMerge(t *testing.T) {
	a := jsi.Metrics{
		Counters:   map[string]int64{"x": 2},
		Gauges:     map[string]int64{"g": 7},
		Histograms: map[string]jsi.Histogram{"h": {Count: 1, Sum: 3, Buckets: []jsi.HistogramBucket{{Le: 3, Count: 1}}}},
	}
	b := jsi.Metrics{
		Counters:   map[string]int64{"x": 5, "y": 1},
		Gauges:     map[string]int64{"g": 4},
		Histograms: map[string]jsi.Histogram{"h": {Count: 2, Sum: 10, Buckets: []jsi.HistogramBucket{{Le: 3, Count: 1}, {Le: 7, Count: 1}}}},
	}
	m := a.Merge(b)
	if m.Counters["x"] != 7 || m.Counters["y"] != 1 {
		t.Errorf("counters = %v", m.Counters)
	}
	if m.Gauges["g"] != 7 {
		t.Errorf("gauges = %v", m.Gauges)
	}
	h := m.Histograms["h"]
	if h.Count != 3 || h.Sum != 13 || len(h.Buckets) != 2 || h.Buckets[0].Count != 2 {
		t.Errorf("histogram = %+v", h)
	}
	if a.Counters["x"] != 2 || a.Histograms["h"].Count != 1 {
		t.Errorf("Merge mutated its receiver: %+v", a)
	}

	ab, err := json.Marshal(a.Merge(b))
	if err != nil {
		t.Fatal(err)
	}
	ba, err := json.Marshal(b.Merge(a))
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(ba) {
		t.Errorf("merge is not commutative:\n%s\nvs\n%s", ab, ba)
	}
	idJSON, err := json.Marshal(a.Merge(jsi.Metrics{}))
	if err != nil {
		t.Fatal(err)
	}
	aJSON, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if string(idJSON) != string(aJSON) {
		t.Errorf("zero Metrics is not an identity:\n%s\nvs\n%s", idJSON, aJSON)
	}
}

// TestWithoutTimingsPublic asserts the public filter keeps _virtual
// (simulated clock) readings and drops host-timing names.
func TestWithoutTimingsPublic(t *testing.T) {
	m := jsi.Metrics{
		Counters: map[string]int64{"infer_records": 1, "infer_wall_ns": 5},
		Gauges:   map[string]int64{"cluster_makespan_virtual": 9, "infer_records_per_sec": 3, "mapreduce_utilization_permille": 500},
	}
	f := m.WithoutTimings()
	if _, ok := f.Counters["infer_wall_ns"]; ok {
		t.Error("_ns counter survived WithoutTimings")
	}
	if _, ok := f.Gauges["infer_records_per_sec"]; ok {
		t.Error("_per_sec gauge survived WithoutTimings")
	}
	if _, ok := f.Gauges["mapreduce_utilization_permille"]; ok {
		t.Error("_permille gauge survived WithoutTimings")
	}
	if f.Gauges["cluster_makespan_virtual"] != 9 {
		t.Error("_virtual simulated-clock gauge must survive WithoutTimings")
	}
	if f.Counters["infer_records"] != 1 {
		t.Error("plain counter must survive WithoutTimings")
	}
}
