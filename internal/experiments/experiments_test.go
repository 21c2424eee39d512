package experiments

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/obs"
	"repro/internal/types"
)

// tinyCfg keeps harness tests fast while still exercising every code
// path: two scales, fixed seed.
func tinyCfg() Config {
	return Config{Scales: []Scale{{"100", 100}, {"1K", 1000}}, Seed: 7, Workers: 4}
}

func TestScalesUpTo(t *testing.T) {
	if got := ScalesUpTo(10_000); len(got) != 2 || got[1].Label != "10K" {
		t.Errorf("ScalesUpTo(10K) = %v", got)
	}
	if got := ScalesUpTo(1_000_000); len(got) != 4 {
		t.Errorf("ScalesUpTo(1M) = %v", got)
	}
	if got := ScalesUpTo(1); len(got) != 1 || got[0].Label != "1K" {
		t.Errorf("ScalesUpTo(1) = %v (must include the smallest)", got)
	}
}

func TestDefaultMaxScaleEnv(t *testing.T) {
	t.Setenv("JSI_MAX_SCALE", "123")
	if got := DefaultMaxScale(); got != 123 {
		t.Errorf("DefaultMaxScale = %d", got)
	}
	t.Setenv("JSI_MAX_SCALE", "garbage")
	if got := DefaultMaxScale(); got != 10_000 {
		t.Errorf("DefaultMaxScale with garbage env = %d", got)
	}
}

// TestRunPipelineBasics also covers Wikidata, whose chunks fuse each
// record while decoding it: the Table 6 split must still charge the
// decoding to InferTime and that fusion to FuseTime.
func TestRunPipelineBasics(t *testing.T) {
	for _, name := range []string{"twitter", "wikidata"} {
		res, err := RunPipeline(context.Background(), name, 300, tinyCfg())
		if err != nil {
			t.Fatal(err)
		}
		if res.Records != 300 {
			t.Errorf("%s: Count = %d", name, res.Records)
		}
		if res.Bytes <= 0 {
			t.Errorf("%s: no bytes measured", name)
		}
		if types.Equal(res.Fused, types.Empty) {
			t.Errorf("%s: fused schema is ε", name)
		}
		if !types.IsNormal(res.Fused) {
			t.Errorf("%s: fused schema is not normal: %s", name, res.Fused)
		}
		if res.InferTime <= 0 || res.FuseTime <= 0 || res.Wall <= 0 {
			t.Errorf("%s: times not measured: %v %v %v", name, res.InferTime, res.FuseTime, res.Wall)
		}
	}
}

// TestRunPipelineTypesEveryRecord pins that the harness measures the
// fold that types every record, the paper's Map phase: its Env has no
// cover, so nothing is absorbed even on repetitive data.
func TestRunPipelineTypesEveryRecord(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := tinyCfg()
	cfg.Recorder = reg
	if _, err := RunPipeline(context.Background(), "twitter", 300, cfg); err != nil {
		t.Fatal(err)
	}
	m := reg.Snapshot()
	if n, ok := m.Counters["infer_absorbed_records"]; ok {
		t.Errorf("the harness absorbed %d records", n)
	}
	if m.Counters["infer_records"] != 300 {
		t.Errorf("infer_records = %d, want 300", m.Counters["infer_records"])
	}
}

func TestRunPipelineUnknownDataset(t *testing.T) {
	if _, err := RunPipeline(context.Background(), "bogus", 10, tinyCfg()); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestRunPipelineDeterministicSchema(t *testing.T) {
	a, err := RunPipeline(context.Background(), "github", 200, tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPipeline(context.Background(), "github", 200, tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !types.Equal(a.Fused, b.Fused) {
		t.Error("pipeline schema not deterministic")
	}
	if a.DistinctTypes != b.DistinctTypes {
		t.Error("distinct counts not deterministic")
	}
}

func TestRunPipelineWorkerCountIrrelevant(t *testing.T) {
	cfg1 := tinyCfg()
	cfg1.Workers = 1
	cfg8 := tinyCfg()
	cfg8.Workers = 8
	a, err := RunPipeline(context.Background(), "nytimes", 200, cfg1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPipeline(context.Background(), "nytimes", 200, cfg8)
	if err != nil {
		t.Fatal(err)
	}
	if !types.Equal(a.Fused, b.Fused) {
		t.Errorf("schema depends on worker count:\n1: %s\n8: %s", a.Fused, b.Fused)
	}
}

func TestTable1(t *testing.T) {
	tab, err := Table1(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if len(tab.Headers) != 3 { // Dataset + 2 scales
		t.Fatalf("headers = %v", tab.Headers)
	}
	// Sizes grow with scale.
	for _, row := range tab.Rows {
		if row[1] == row[2] {
			t.Errorf("%s: scale did not change the size (%s)", row[0], row[1])
		}
	}
}

func TestDatasetTables(t *testing.T) {
	for name, number := range map[string]int{"github": 2, "twitter": 3, "wikidata": 4, "nytimes": 5} {
		tab, err := DatasetTable(name, tinyCfg())
		if err != nil {
			t.Fatal(err)
		}
		if tab.Number != number {
			t.Errorf("%s table number = %d", name, tab.Number)
		}
		if len(tab.Rows) != 2 {
			t.Fatalf("%s rows = %d", name, len(tab.Rows))
		}
		// Distinct types grow with scale.
		small, _ := strconv.Atoi(tab.Rows[0][1])
		big, _ := strconv.Atoi(tab.Rows[1][1])
		if big <= small {
			t.Errorf("%s: distinct types %d -> %d did not grow", name, small, big)
		}
	}
}

func TestTable2ShapeGitHub(t *testing.T) {
	tab, err := DatasetTable("github", tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	// fused/avg ratio stays small (paper: <= 1.4).
	for _, row := range tab.Rows {
		ratio, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio > 1.5 {
			t.Errorf("github ratio at %s = %.2f, want <= ~1.4", row[0], ratio)
		}
	}
}

func TestTable4ShapeWikidata(t *testing.T) {
	tab, err := DatasetTable("wikidata", tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Fused size grows with scale (ids-as-keys).
	s0, _ := strconv.Atoi(tab.Rows[0][5])
	s1, _ := strconv.Atoi(tab.Rows[1][5])
	if s1 <= s0 {
		t.Errorf("wikidata fused size did not grow: %d -> %d", s0, s1)
	}
}

func TestTable6(t *testing.T) {
	tab, err := Table6(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if _, err := time.ParseDuration(row[3]); err != nil {
			t.Errorf("%s infer time %q unparseable", row[0], row[3])
		}
	}
}

// TestTable7ShowsSkewPenalty checks the simulation at a fixed compute
// rate: the calibrated rate follows the host's load, and at 2 MB/s the
// skewed placement already keeps 5 of 6 nodes busy.
func TestTable7ShowsSkewPenalty(t *testing.T) {
	if tab, err := Table7(tinyCfg()); err != nil || len(tab.Rows) != 2 {
		t.Fatalf("Table7: %d rows, err %v", len(tab.Rows), err)
	}
	tab, err := table7At(15)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	skewed, err := time.ParseDuration(strings.ReplaceAll(tab.Rows[0][1], " ", ""))
	if err != nil {
		t.Fatalf("parse %q: %v", tab.Rows[0][1], err)
	}
	spread, err := time.ParseDuration(strings.ReplaceAll(tab.Rows[1][1], " ", ""))
	if err != nil {
		t.Fatal(err)
	}
	if skewed <= spread {
		t.Errorf("skewed %v should exceed spread %v", skewed, spread)
	}
	// Paper: only ~2 of 6 nodes busy under skew.
	if !strings.HasPrefix(tab.Rows[0][2], "1/") && !strings.HasPrefix(tab.Rows[0][2], "2/") && !strings.HasPrefix(tab.Rows[0][2], "3/") {
		t.Errorf("skewed nodes used = %s, want <= 3", tab.Rows[0][2])
	}
	if tab.Rows[1][2] != "6/6" {
		t.Errorf("spread nodes used = %s", tab.Rows[1][2])
	}
}

func TestTable8(t *testing.T) {
	tab, err := Table8(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 { // 4 partitions + average
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	totalObjects := 0
	for _, row := range tab.Rows[:4] {
		n, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("objects %q: %v", row[1], err)
		}
		totalObjects += n
		if !strings.HasSuffix(row[3], "min") {
			t.Errorf("time cell = %q", row[3])
		}
	}
	if totalObjects != 1000 {
		t.Errorf("partitions cover %d objects, want 1000", totalObjects)
	}
}

func TestRenderAligns(t *testing.T) {
	tab := Table{Number: 9, Caption: "demo", Headers: []string{"a", "bbbb"}, Rows: [][]string{{"xxxxx", "y"}}}
	out := tab.Render()
	if !strings.Contains(out, "Table 9: demo") {
		t.Errorf("caption missing:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if len(lines[1]) != len(lines[3]) {
		t.Errorf("misaligned rows:\n%s", out)
	}
}

func TestMeasureComputeMBps(t *testing.T) {
	mbps, err := MeasureComputeMBps("twitter", tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if mbps <= 0 {
		t.Errorf("compute rate = %v", mbps)
	}
	if _, err := MeasureComputeMBps("bogus", tinyCfg()); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestAblations(t *testing.T) {
	tabs, err := Ablations(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 9 {
		t.Fatalf("ablations = %d", len(tabs))
	}
	// Succinctness: compression factor > 1 for every dataset.
	for _, row := range tabs[0].Rows {
		if !strings.HasSuffix(row[4], "x") {
			t.Errorf("compression cell = %q", row[4])
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "x"), 64)
		if err != nil || v <= 1 {
			t.Errorf("%s compression = %q, want > 1x", row[0], row[4])
		}
	}
	// Tagged-union ablation: all six generators report, the tagged
	// schema refines the paper's everywhere, and the discriminated
	// generators lose every spurious optional field.
	var taggedTab *Table
	for i := range tabs {
		if tabs[i].Number == 109 {
			taggedTab = &tabs[i]
		}
	}
	if taggedTab == nil {
		t.Fatal("no tagged-union ablation (Table 109)")
	}
	if len(taggedTab.Rows) != 6 {
		t.Fatalf("tagged ablation rows = %d, want 6", len(taggedTab.Rows))
	}
	for _, row := range taggedTab.Rows {
		if row[7] != "true" {
			t.Errorf("%s: tagged schema is not a subschema of the paper's", row[0])
		}
		if row[0] == "eventlog" || row[0] == "webhook" {
			if row[6] != "0" {
				t.Errorf("%s: tagged optional fields = %s, want 0", row[0], row[6])
			}
			if row[5] == "0" {
				t.Errorf("%s: paper optional fields = 0, the generator lost its shape mix", row[0])
			}
		}
	}
	// Combiner ablation: both disciplines agree on the schema.
	comb := tabs[2]
	if comb.Rows[0][2] != "true" {
		t.Errorf("combiner disciplines disagree: %v", comb.Rows)
	}
	// Positional ablation: the positional schema is always a subschema
	// of the paper's, and Twitter preserves its fixed-shape index pairs.
	posTab := tabs[5]
	for _, row := range posTab.Rows {
		if row[4] != "true" {
			t.Errorf("%s: positional schema is not a subschema", row[0])
		}
	}
	if posTab.Rows[1][3] == "0" {
		t.Errorf("twitter should preserve tuples: %v", posTab.Rows[1])
	}
	// Abstraction ablation: a large reduction on Wikidata, soundly.
	absTab := tabs[6]
	for _, row := range absTab.Rows {
		if row[4] != "true" {
			t.Errorf("abstraction unsound at %s", row[0])
		}
	}
	// Replication ablation: more nodes busy as replicas increase.
	repTab := tabs[7]
	if repTab.Rows[0][2] >= repTab.Rows[2][2] {
		t.Errorf("replication did not spread work: %v", repTab.Rows)
	}
}

func TestAllTables(t *testing.T) {
	cfg := Config{Scales: []Scale{{"100", 100}}, Seed: 3, Workers: 2}
	tabs, err := AllTables(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 8 {
		t.Fatalf("AllTables returned %d tables", len(tabs))
	}
	for i, tab := range tabs {
		if tab.Number != i+1 {
			t.Errorf("table %d has number %d", i, tab.Number)
		}
		if out := tab.Render(); !strings.Contains(out, "Table") {
			t.Errorf("table %d renders empty", i+1)
		}
	}
}

// TestPipelineRetriesTransientFaults drives the experiments pipeline
// through the engine's failure policy: with injected transient faults
// and a retry budget, the result is identical to the clean run and the
// fault handling is reported.
func TestPipelineRetriesTransientFaults(t *testing.T) {
	cfg := Config{Scales: []Scale{{"1K", 1000}}, Workers: 4}
	clean, err := RunPipeline(context.Background(), "github", 1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	faulty := cfg
	faulty.Failure = mapreduce.FailurePolicy{Retries: 2}
	faulty.Injector = func(seq, attempt int) mapreduce.Fault {
		if seq%3 == 0 && attempt == 0 {
			return mapreduce.Fault{Err: errors.New("injected transient fault")}
		}
		return mapreduce.Fault{}
	}
	res, err := RunPipeline(context.Background(), "github", 1000, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if !types.Equal(res.Fused, clean.Fused) {
		t.Errorf("retried run fused %s, clean run %s", res.Fused, clean.Fused)
	}
	if res.Records != clean.Records {
		t.Errorf("records = %d, want %d", res.Records, clean.Records)
	}
	if res.Retries == 0 {
		t.Error("Retries = 0, want > 0")
	}
	if res.Quarantined != 0 {
		t.Errorf("Quarantined = %d, want 0", res.Quarantined)
	}
}

// TestPipelineSkipQuarantinesChunk verifies the Skip policy completes
// the run without a permanently failing chunk and reports it.
func TestPipelineSkipQuarantinesChunk(t *testing.T) {
	cfg := Config{Scales: []Scale{{"1K", 1000}}, Workers: 4}
	clean, err := RunPipeline(context.Background(), "twitter", 1000, cfg)
	if err != nil {
		t.Fatal(err)
	}
	faulty := cfg
	faulty.Failure = mapreduce.FailurePolicy{Retries: 1, Skip: true}
	faulty.Injector = func(seq, attempt int) mapreduce.Fault {
		if seq == 2 {
			return mapreduce.Fault{Err: mapreduce.Permanent(errors.New("injected permanent fault"))}
		}
		return mapreduce.Fault{}
	}
	res, err := RunPipeline(context.Background(), "twitter", 1000, faulty)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quarantined != 1 {
		t.Fatalf("Quarantined = %d, want 1", res.Quarantined)
	}
	if res.Records >= clean.Records {
		t.Errorf("skipped run counted %d records, clean %d: the quarantined chunk's records should be missing", res.Records, clean.Records)
	}
}
