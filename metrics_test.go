package jsoninference_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// TestMetricsDeterministic runs the same inference twice with fixed
// parallelism and asserts the two metric snapshots are byte-identical
// once timing-dependent metrics (_ns, _permille, _per_sec) and the
// absorption metrics, which follow which chunks were mapped first, are
// stripped: chunk counts, record counts, byte counts and the
// records-per-chunk histogram must not depend on scheduling.
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
	if _, ok := m.Histograms["infer_chunk_records"]; !ok {
		t.Errorf("chunk-records histogram missing: %s", first)
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

// TestStageTimingsAddUp checks that the engine's own stage timings
// attribute a one-worker run without double counting: decode+infer,
// chunk-local fusion, every combine and the final fold are each
// clocked, and together they fit inside the run's wall time. Twitter
// chunks absorb most records, wikidata chunks type most of theirs,
// and nytimes through FromReader takes the streaming driver.
func TestStageTimingsAddUp(t *testing.T) {
	for _, tc := range []struct {
		dataset string
		src     func([]byte) jsi.Source
	}{
		{"twitter", jsi.FromBytes},
		{"wikidata", jsi.FromBytes},
		{"nytimes", func(b []byte) jsi.Source { return jsi.FromReader(bytes.NewReader(b)) }},
	} {
		g, err := dataset.New(tc.dataset)
		if err != nil {
			t.Fatal(err)
		}
		c := jsi.NewCollector()
		if _, _, err := jsi.Infer(context.Background(), tc.src(dataset.NDJSON(g, 2000, 3)), jsi.Options{Workers: 1, Collector: c}); err != nil {
			t.Fatal(err)
		}
		m := c.Metrics()
		decode, fuse, fold := m.Counters["infer_decode_ns"], m.Counters["infer_fuse_ns"], m.Counters["infer_fold_ns"]
		if decode <= 0 || fuse <= 0 || fold <= 0 {
			t.Errorf("%s: stage not timed: decode %d, fuse %d, fold %d ns", tc.dataset, decode, fuse, fold)
		}
		combine := m.Histograms["mapreduce_combine_ns"].Sum
		if sum, wall := decode+fuse+combine+fold, m.Counters["infer_wall_ns"]; sum > wall {
			t.Errorf("%s: stages sum to %d ns (decode %d, fuse %d, combine %d, fold %d), more than the wall time %d ns",
				tc.dataset, sum, decode, fuse, combine, fold, wall)
		}
	}
}

// inventoryPrefixes are the metric families docs/OBSERVABILITY.md
// inventories for the inference pipeline and the experiments harness.
var inventoryPrefixes = []string{"infer_", "mapreduce_", "experiments_"}

// TestMetricInventoryMatchesCode records metrics from every Source
// kind, from runs that retry an injected fault and quarantine a chunk,
// and from the experiments harness, then checks that the inventory in
// docs/OBSERVABILITY.md names exactly the metrics of those families
// that the code records: no undocumented metric, and no documented one
// that nothing records.
func TestMetricInventoryMatchesCode(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("docs", "OBSERVABILITY.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "| `") {
			continue
		}
		for _, name := range regexp.MustCompile("`([a-z0-9_]+)`").FindAllStringSubmatch(cells[1], -1) {
			if inventoried(name[1]) {
				documented[name[1]] = true
			}
		}
	}

	g, err := dataset.New("twitter")
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.NDJSON(g, 600, 5)
	path := filepath.Join(t.TempDir(), "twitter.ndjson")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	faultFirst := func(chunk, attempt int) jsi.InjectedFault {
		if chunk == 0 && attempt == 0 {
			return jsi.InjectedFault{Err: errors.New("injected fault")}
		}
		return jsi.InjectedFault{}
	}
	poison := func(chunk, _ int) jsi.InjectedFault {
		if chunk == 0 {
			return jsi.InjectedFault{Err: jsi.PermanentFault(errors.New("poisoned chunk"))}
		}
		return jsi.InjectedFault{}
	}
	runs := []struct {
		name string
		src  jsi.Source
		opts jsi.Options
	}{
		{"FromBytes", jsi.FromBytes(data), jsi.Options{}},
		{"FromReader", jsi.FromReader(bytes.NewReader(data)), jsi.Options{}},
		{"FromChunkedReader", jsi.FromChunkedReader(bytes.NewReader(data)), jsi.Options{ChunkBytes: 8 << 10}},
		{"FromFile", jsi.FromFile(path), jsi.Options{ChunkBytes: 8 << 10}},
		{"FromFiles", jsi.FromFiles(path, path), jsi.Options{ChunkBytes: 8 << 10}},
		{"Retries", jsi.FromBytes(data), jsi.Options{Retries: 1, FaultInjector: faultFirst}},
		{"OnErrorSkip", jsi.FromBytes(data), jsi.Options{OnError: jsi.OnErrorSkip, FaultInjector: poison}},
	}
	recorded := map[string]string{}
	note := func(run string, m obs.Metrics) {
		for _, names := range []map[string]int64{m.Counters, m.Gauges} {
			for name := range names {
				recorded[name] = run
			}
		}
		for name := range m.Histograms {
			recorded[name] = run
		}
	}
	for _, r := range runs {
		c := jsi.NewCollector()
		r.opts.Workers, r.opts.Collector = 2, c
		if _, _, err := jsi.Infer(context.Background(), r.src, r.opts); err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		note(r.name, c.Metrics())
	}
	reg := obs.NewRegistry()
	if _, err := experiments.RunPipeline(context.Background(), "twitter", 300, experiments.Config{Workers: 2, Recorder: reg}); err != nil {
		t.Fatal(err)
	}
	note("experiments.RunPipeline", reg.Snapshot())

	var problems []string
	for name, run := range recorded {
		if inventoried(name) && !documented[name] {
			problems = append(problems, name+" is recorded (by "+run+") but has no inventory row")
		}
	}
	for name := range documented {
		if _, ok := recorded[name]; !ok {
			problems = append(problems, name+" has an inventory row but no run records it")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

func inventoried(name string) bool {
	for _, p := range inventoryPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}
