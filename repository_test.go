package jsoninference_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	jsi "repro"
)

func inferSchema(t *testing.T, data string) (*jsi.Schema, jsi.Stats) {
	t.Helper()
	schema, stats, err := jsi.InferNDJSON([]byte(data), jsi.Options{})
	if err != nil {
		t.Fatalf("InferNDJSON: %v", err)
	}
	return schema, stats
}

func TestRepositoryAppendFusesLikeOffline(t *testing.T) {
	batches := []string{
		`{"id": 1, "tags": ["a"]}` + "\n" + `{"id": 2}`,
		`{"id": "x", "draft": true}`,
		`{"id": 3, "tags": [7]}`,
	}
	repo := jsi.NewRepository()
	var all strings.Builder
	var records int64
	for i, b := range batches {
		schema, stats := inferSchema(t, b)
		repo.Append(fmt.Sprintf("part-%d", i%2), schema, stats.Records)
		all.WriteString(b)
		all.WriteString("\n")
		records += stats.Records
	}
	offline, _ := inferSchema(t, all.String())
	if got, want := repo.Schema().String(), offline.String(); got != want {
		t.Errorf("repository schema = %s, offline = %s", got, want)
	}
	if got := repo.Count(); got != records {
		t.Errorf("Count = %d, want %d", got, records)
	}
	if got, want := repo.Partitions(), []string{"part-0", "part-1"}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Partitions = %v, want %v", got, want)
	}
	if n, ok := repo.PartitionCount("part-0"); !ok || n != 3 {
		t.Errorf("PartitionCount(part-0) = %d, %v; want 3, true", n, ok)
	}
	if _, ok := repo.PartitionSchema("absent"); ok {
		t.Error("PartitionSchema(absent) reported existence")
	}
}

func TestRepositoryNilSchemaAppend(t *testing.T) {
	repo := jsi.NewRepository()
	repo.Append("p", nil, 5)
	if n := repo.Count(); n != 5 {
		t.Errorf("Count = %d, want 5", n)
	}
	if !repo.Schema().IsEmpty() {
		t.Errorf("schema = %s, want empty", repo.Schema())
	}
}

func TestRepositoryDropPartition(t *testing.T) {
	repo := jsi.NewRepository()
	s1, st1 := inferSchema(t, `{"id": 1}`)
	s2, st2 := inferSchema(t, `{"name": "x"}`)
	repo.Append("a", s1, st1.Records)
	repo.Append("b", s2, st2.Records)
	repo.DropPartition("b")
	if got, want := repo.Schema().String(), s1.String(); got != want {
		t.Errorf("after drop: schema = %s, want %s", got, want)
	}
	repo.DropPartition("absent") // no-op
	if got := len(repo.Partitions()); got != 1 {
		t.Errorf("partitions = %d, want 1", got)
	}
}

func TestRepositorySaveLoadRoundTrip(t *testing.T) {
	repo := jsi.NewRepository()
	s1, st1 := inferSchema(t, `{"id": 1, "tags": ["a", "b"]}`)
	s2, st2 := inferSchema(t, `{"id": "x", "draft": true}`)
	repo.Append("2024-01", s1, st1.Records)
	repo.Append("2024-02", s2, st2.Records)

	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := jsi.LoadRepository(&buf)
	if err != nil {
		t.Fatalf("LoadRepository: %v", err)
	}
	if got, want := loaded.Schema().String(), repo.Schema().String(); got != want {
		t.Errorf("loaded schema = %s, want %s", got, want)
	}
	if got, want := loaded.Count(), repo.Count(); got != want {
		t.Errorf("loaded count = %d, want %d", got, want)
	}
	if _, err := jsi.LoadRepository(strings.NewReader("{not json")); err == nil {
		t.Error("LoadRepository accepted malformed input")
	}
}

// TestLoadRepositoryRejectsSketchGeometry: a snapshot's enrichment
// params are checked before any sketch is built. Unchecked, the first
// snapshot loaded after allocating 128 MiB for its one lattice node and
// the second panicked.
func TestLoadRepositoryRejectsSketchGeometry(t *testing.T) {
	for _, bits := range []string{"1073741824", "9223372036854775800"} {
		snap := `{"partitions":[{"name":"p","count":1,"schema":{"k":"num"},"enrichment":` +
			`{"monoids":["bloom"],"params":{"hll_precision":8,"bloom_bits":` + bits + `,"bloom_hashes":4}}}]}`
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := jsi.LoadRepository(strings.NewReader(snap))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("bloom_bits %s: snapshot loaded", bits)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("bloom_bits %s: rejecting the snapshot allocated %d bytes", bits, grew)
		}
	}
}

// TestRepositoryEnrichmentRoundTrip: appended schemas carry their
// enrichment lattice into the repository (per partition and fused
// globally), and Save/Load preserves it — the reloaded repository
// serves byte-identical annotated schemas and reports. The global
// enrichment must equal a direct inference over the concatenation,
// because lattice union is the same commutative monoid the fused
// schema rides.
func TestRepositoryEnrichmentRoundTrip(t *testing.T) {
	enrich := jsi.Options{Enrich: []string{"all"}}
	batches := []string{
		`{"n": 3, "when": "2024-01-05"}` + "\n" + `{"n": 1, "when": "2023-11-30"}`,
		`{"n": 2.5, "tags": ["a", "b"]}`,
	}
	repo := jsi.NewRepository()
	var all strings.Builder
	for i, b := range batches {
		schema, stats, err := jsi.InferNDJSON([]byte(b), enrich)
		if err != nil {
			t.Fatal(err)
		}
		if !schema.Enriched() {
			t.Fatalf("batch %d not enriched", i)
		}
		repo.Append(fmt.Sprintf("part-%d", i), schema, stats.Records)
		all.WriteString(b + "\n")
	}
	offline, _, err := jsi.InferNDJSON([]byte(all.String()), enrich)
	if err != nil {
		t.Fatal(err)
	}
	wantJS, err := offline.JSONSchema()
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := offline.EnrichmentJSON()
	if err != nil {
		t.Fatal(err)
	}

	checkRepo := func(label string, r *jsi.Repository) {
		t.Helper()
		got := r.Schema()
		if !got.Enriched() {
			t.Fatalf("%s: global schema lost enrichment", label)
		}
		js, err := got.JSONSchema()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js, wantJS) {
			t.Errorf("%s: annotated schema diverged from offline\n got: %s\nwant: %s", label, js, wantJS)
		}
		rep, err := got.EnrichmentJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rep, wantReport) {
			t.Errorf("%s: enrichment report diverged from offline\n got: %s\nwant: %s", label, rep, wantReport)
		}
		ps, ok := r.PartitionSchema("part-0")
		if !ok || !ps.Enriched() {
			t.Errorf("%s: partition schema not enriched (ok=%v)", label, ok)
		}
	}
	checkRepo("live", repo)

	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := jsi.LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	checkRepo("reloaded", loaded)

	// A second save of the reloaded repository is byte-identical: the
	// wire format itself is deterministic, enrichment included.
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := repo.Save(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Errorf("save-load-save not byte-stable\n got: %s\nwant: %s", buf2.Bytes(), buf3.Bytes())
	}

	// Appending a plain (unenriched) schema still works: the lattice
	// union simply has nothing new for those values.
	plain, stats, err := jsi.InferNDJSON([]byte(`{"n": 9}`), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	repo.Append("part-plain", plain, stats.Records)
	if !repo.Schema().Enriched() {
		t.Error("appending a plain schema dropped the repository's enrichment")
	}
}

// TestRepositoryConcurrentAppendScheamSave races Append, Schema,
// PartitionSchema and Save on one Repository — the access pattern of a
// schemad tenant under concurrent ingest — and then checks the final
// schema equals the offline reference. Run under -race.
func TestRepositoryConcurrentAppendSchemaSave(t *testing.T) {
	const (
		writers = 8
		batches = 25
	)
	batch := `{"id": 1, "tags": ["a"]}` + "\n" + `{"id": "x", "draft": true}`
	schema, stats := inferSchema(t, batch)

	repo := jsi.NewRepository()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				repo.Append(fmt.Sprintf("part-%d", w%3), schema, stats.Records)
				_ = repo.Schema().Size()
				_, _ = repo.PartitionSchema("part-0")
				var buf bytes.Buffer
				if err := repo.Save(&buf); err != nil {
					t.Errorf("Save: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()

	if got, want := repo.Schema().String(), schema.String(); got != want {
		t.Errorf("final schema = %s, want %s", got, want)
	}
	if got, want := repo.Count(), int64(writers*batches)*stats.Records; got != want {
		t.Errorf("final count = %d, want %d", got, want)
	}
}
