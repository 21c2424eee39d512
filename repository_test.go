package jsoninference_test

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
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
	if !repo.DropPartition("b") {
		t.Error("DropPartition(b) reported an absent partition")
	}
	if got, want := repo.Schema().String(), s1.String(); got != want {
		t.Errorf("after drop: schema = %s, want %s", got, want)
	}
	if repo.DropPartition("absent") { // no-op
		t.Error("DropPartition(absent) reported a partition")
	}
	if got := len(repo.Partitions()); got != 1 {
		t.Errorf("partitions = %d, want 1", got)
	}
}

// TestRepositoryDropPartitionKeepsOthers: dropping one partition leaves
// the union of the rest, and dropping an unknown name changes nothing.
func TestRepositoryDropPartitionKeepsOthers(t *testing.T) {
	repo := jsi.NewRepository()
	keep, _ := inferSchema(t, `{"a": 1}`)
	drop, _ := inferSchema(t, `{"b": 1}`)
	repo.Append("keep", keep, 1)
	repo.Append("drop", drop, 1)
	repo.DropPartition("drop")
	repo.DropPartition("never-existed") // no-op
	if got, want := repo.Schema().String(), "{a: Num}"; got != want {
		t.Errorf("Schema = %s, want %s", got, want)
	}
	if repo.Count() != 1 {
		t.Errorf("Count = %d, want 1", repo.Count())
	}
}

// TestRepositoryConcurrentAppends races eight writers appending
// per-record schemas into two partitions, then checks the count and
// that the union equals batch inference over every record.
func TestRepositoryConcurrentAppends(t *testing.T) {
	const (
		writers = 8
		records = 50
	)
	g, _ := dataset.New("mixed")
	var all bytes.Buffer
	data := make([][]byte, writers)
	for w := range data {
		data[w] = dataset.NDJSON(g, records, int64(w))
		all.Write(data[w])
	}
	repo := jsi.NewRepository()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, line := range bytes.SplitAfter(data[w], []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				s, err := jsi.InferJSON(line)
				if err != nil {
					t.Errorf("InferJSON: %v", err)
					return
				}
				repo.Append(fmt.Sprintf("p%d", w%2), s, 1)
			}
		}(w)
	}
	wg.Wait()
	if got, want := repo.Count(), int64(writers*records); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	batch, _ := inferSchema(t, all.String())
	if got, want := repo.Schema().String(), batch.String(); got != want {
		t.Errorf("concurrent %s != batch %s", got, want)
	}
}

func TestRepositoryEmpty(t *testing.T) {
	repo := jsi.NewRepository()
	if !repo.Schema().IsEmpty() {
		t.Errorf("empty repository schema = %s", repo.Schema())
	}
	if repo.Count() != 0 || len(repo.Partitions()) != 0 {
		t.Error("empty repository not empty")
	}
	if _, ok := repo.PartitionSchema("nope"); ok {
		t.Error("missing partition reported present")
	}
}

// TestRepositoryRecordAppendsMatchBatch: appending every record's schema
// one at a time equals batch inference — the associativity corollary
// the paper highlights.
func TestRepositoryRecordAppendsMatchBatch(t *testing.T) {
	g, _ := dataset.New("twitter")
	data := dataset.NDJSON(g, 120, 3)
	repo := jsi.NewRepository()
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		s, err := jsi.InferJSON(line)
		if err != nil {
			t.Fatal(err)
		}
		repo.Append("main", s, 1)
	}
	batch, _ := inferSchema(t, string(data))
	if got, want := repo.Schema().String(), batch.String(); got != want {
		t.Errorf("incremental %s != batch %s", got, want)
	}
	if repo.Count() != 120 {
		t.Errorf("Count = %d", repo.Count())
	}
}

func TestRepositoryPartitionsFuse(t *testing.T) {
	repo := jsi.NewRepository()
	s1, _ := inferSchema(t, `{"a": 1}`)
	s2, _ := inferSchema(t, `{"b": "x"}`)
	repo.Append("p1", s1, 1)
	repo.Append("p2", s2, 1)
	if got, want := repo.Schema().String(), "{a: Num?, b: Str?}"; got != want {
		t.Errorf("Schema = %s, want %s", got, want)
	}
	if got := repo.Partitions(); len(got) != 2 || got[0] != "p1" || got[1] != "p2" {
		t.Errorf("Partitions = %v", got)
	}
	if p1, ok := repo.PartitionSchema("p1"); !ok || p1.String() != "{a: Num}" {
		t.Errorf("p1 schema = %v", p1)
	}
}

// TestRepositoryReplacePartition re-infers one partition — the "re-infer
// the schema for the updated parts" maintenance step of Section 1 — as
// a drop and an append, leaving the other partitions alone.
func TestRepositoryReplacePartition(t *testing.T) {
	repo := jsi.NewRepository()
	stable, _ := inferSchema(t, `{"a": 1}`)
	old, _ := inferSchema(t, `{"b": "old"}`)
	repo.Append("stable", stable, 1)
	repo.Append("dirty", old, 1)
	fresh, st := inferSchema(t, `{"c": true}`+"\n"+`{"c": false, "d": null}`)
	repo.DropPartition("dirty")
	repo.Append("dirty", fresh, st.Records)
	if got, want := repo.Schema().String(), "{a: Num?, c: Bool?, d: Null?}"; got != want {
		t.Errorf("Schema = %s, want %s", got, want)
	}
	if repo.Count() != 3 {
		t.Errorf("Count = %d, want 3", repo.Count())
	}
}

// TestRepositoryAppendSimplifiesTuples: stored schemas are simplified,
// so a positional schema from PreserveTupleArrays is kept as the
// paper's repeated type, unlike offline inference under that option.
func TestRepositoryAppendSimplifiesTuples(t *testing.T) {
	pos, st, err := jsi.InferNDJSON([]byte(`{"p": [1, "x"]}`), jsi.Options{PreserveTupleArrays: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pos.String(), "{p: [Num, Str]}"; got != want {
		t.Fatalf("offline positional schema = %s, want %s", got, want)
	}
	repo := jsi.NewRepository()
	repo.Append("p", pos, st.Records)
	if got, _ := repo.PartitionSchema("p"); got.String() != "{p: [(Num + Str)*]}" {
		t.Errorf("stored schema = %s, want simplified", got)
	}
}

func TestRepositorySchemaCacheInvalidation(t *testing.T) {
	repo := jsi.NewRepository()
	s1, _ := inferSchema(t, `{"a": 1}`)
	s2, _ := inferSchema(t, `{"b": 2}`)
	repo.Append("p", s1, 1)
	first := repo.Schema()
	if again := repo.Schema(); !first.Equal(again) {
		t.Error("cached schema differs")
	}
	repo.Append("p", s2, 1)
	updated := repo.Schema()
	if first.Equal(updated) {
		t.Error("schema not invalidated after append")
	}
	if got, want := updated.String(), "{a: Num?, b: Num?}"; got != want {
		t.Errorf("updated schema = %s, want %s", got, want)
	}
}

func TestRepositorySaveLoadPartitions(t *testing.T) {
	g, _ := dataset.New("nytimes")
	lines := bytes.SplitAfter(dataset.NDJSON(g, 40, 9), []byte("\n"))
	repo := jsi.NewRepository()
	for i, line := range lines[:40] {
		s, err := jsi.InferJSON(line)
		if err != nil {
			t.Fatal(err)
		}
		repo.Append(fmt.Sprintf("part%d", i%3), s, 1)
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := jsi.LoadRepository(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !repo.Schema().Equal(back.Schema()) {
		t.Errorf("loaded schema %s != saved %s", back.Schema(), repo.Schema())
	}
	if repo.Count() != back.Count() {
		t.Errorf("loaded count %d != saved %d", back.Count(), repo.Count())
	}
	if len(back.Partitions()) != 3 {
		t.Errorf("loaded partitions = %v", back.Partitions())
	}
}

// hintReader reports a length that need not be the number of bytes it
// holds, as a file that grew or shrank after its size was read does.
type hintReader struct {
	*bytes.Reader
	n int
}

func (r hintReader) Len() int { return r.n }

// TestLoadRepositorySizeHints: LoadRepository sizes its buffer from the
// reader's Len or the file's Stat but reads to the end, so a size that
// is wrong loads the same repository, and bytes past it still count.
func TestLoadRepositorySizeHints(t *testing.T) {
	g, _ := dataset.New("nytimes")
	repo := jsi.NewRepository()
	for i, line := range bytes.SplitAfter(dataset.NDJSON(g, 12, 5), []byte("\n"))[:12] {
		s, err := jsi.InferJSON(line)
		if err != nil {
			t.Fatal(err)
		}
		repo.Append(fmt.Sprintf("part%d", i%2), s, 1)
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()
	path := filepath.Join(t.TempDir(), "snapshot.json")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, rd := range map[string]io.Reader{
		"file":  f,
		"exact": hintReader{bytes.NewReader(snap), len(snap)},
		"short": hintReader{bytes.NewReader(snap), 1},
		"long":  hintReader{bytes.NewReader(snap), 3 * len(snap)},
	} {
		back, err := jsi.LoadRepository(rd)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !repo.Schema().Equal(back.Schema()) || repo.Count() != back.Count() {
			t.Errorf("%s: loaded %s (%d records), saved %s (%d)", name, back.Schema(), back.Count(), repo.Schema(), repo.Count())
		}
	}
	grown := append(bytes.Clone(snap), "{}"...)
	if _, err := jsi.LoadRepository(hintReader{bytes.NewReader(grown), len(snap)}); err == nil {
		t.Error("bytes past the size hint were not read: trailing data accepted")
	}
}

func TestLoadRepositoryErrors(t *testing.T) {
	if _, err := jsi.LoadRepository(strings.NewReader("not json")); err == nil {
		t.Error("LoadRepository accepted garbage")
	}
	if _, err := jsi.LoadRepository(strings.NewReader(`{"partitions":[{"name":"p","schema":{"k":"bogus"}}]}`)); err == nil {
		t.Error("LoadRepository accepted a bad schema")
	}
	for name, snap := range lostRecordSnapshots {
		r, err := jsi.LoadRepository(strings.NewReader(snap))
		if err == nil {
			t.Errorf("%s: snapshot loaded, Count() = %d", name, r.Count())
		} else if !strings.Contains(err.Error(), `partition "a"`) {
			t.Errorf("%s: error %q does not name the partition", name, err)
		}
	}
	// The loader is strict: unknown, case-folded and repeated member
	// names, missing members, counts that are not integer literals and
	// bytes after the document are errors.
	for _, snap := range []string{
		`{"pArtitions":0}`,
		`{"Partitions":[]}`,
		`{"partitions":[],"version":1}`,
		`{"partitions":[{"name":"p","count":1,"schema":{"k":"num"},"comment":"x"}]}`,
		`{"partitions":[{"name":"p","name":"q","count":1,"schema":{"k":"num"}}]}`,
		`{"partitions":[{"name":"p","count":1,"count":2,"schema":{"k":"num"}}]}`,
		`{"partitions":[{"name":"p","count":1,"schema":{"k":"num","k":"str"}}]}`,
		`{"partitions":[{"name":"p","count":1.5,"schema":{"k":"num"}}]}`,
		`{"partitions":[{"name":"p","count":1e2,"schema":{"k":"num"}}]}`,
		`{"partitions":[{"name":"p","count":9223372036854775808,"schema":{"k":"num"}}]}`,
		`{"partitions":[{"name":"p","count":"1","schema":{"k":"num"}}]}`,
		`{"partitions":[{"name":"p","schema":{"k":"num"}}]}`,
		`{"partitions":[{"count":1,"schema":{"k":"num"}}]}`,
		`{"partitions":[{"name":"p","count":1}]}`,
		`{"partitions":[{"name":"p","count":1,"schema":{"k":"num"}}]}]`,
		`{}`,
		``,
	} {
		if r, err := jsi.LoadRepository(strings.NewReader(snap)); err == nil {
			t.Errorf("LoadRepository(%s) loaded %v", snap, r.Partitions())
		}
	}
}

// TestLoadRepositoryRejectsTrailingData: a snapshot followed by more
// bytes, garbage or a second snapshot, is an error, not the first
// snapshot restored on its own.
func TestLoadRepositoryRejectsTrailingData(t *testing.T) {
	s, _ := inferSchema(t, `{"a": 1}`)
	repo := jsi.NewRepository()
	repo.Append("p", s, 1)
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.String()
	if _, err := jsi.LoadRepository(strings.NewReader(snap + " \n\t")); err != nil {
		t.Fatalf("trailing whitespace: %v", err)
	}
	for name, doc := range map[string]string{
		"garbage":  snap + "garbage",
		"twice":    snap + snap,
		"brace":    snap + "}",
		"no space": strings.TrimSpace(snap) + "0",
	} {
		if r, err := jsi.LoadRepository(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: snapshot with trailing data loaded %v", name, r.Partitions())
		}
	}
}

// TestLoadRepositoryExactCount: a count above 2^53, where float64
// rounds, loads exactly and saves back unchanged.
func TestLoadRepositoryExactCount(t *testing.T) {
	const count = 9007199254740993 // 2^53 + 1
	snap := fmt.Sprintf(`{"partitions":[{"name":"p","count":%d,"schema":{"k":"num"}}]}`, count)
	r, err := jsi.LoadRepository(strings.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := r.PartitionCount("p"); got != count {
		t.Fatalf("PartitionCount = %d, want %d", got, count)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"count":9007199254740993,`) {
		t.Errorf("Save wrote\n%s", buf.Bytes())
	}
}

// TestRepositoryAppendRejectsLostRecords: Append panics on the counts
// LoadRepository rejects — a negative one and one that overflows the
// total — and leaves the repository as it was, so a Save after the
// recovered panic still loads back.
func TestRepositoryAppendRejectsLostRecords(t *testing.T) {
	s, _ := inferSchema(t, `{"a": 1}`)
	for name, count := range map[string]int64{"negative": -3, "overflow": math.MaxInt64} {
		repo := jsi.NewRepository()
		repo.Append("p", s, 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Append(%d) did not panic", name, count)
				}
			}()
			repo.Append("q", s, count)
		}()
		var buf bytes.Buffer
		if err := repo.Save(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := jsi.LoadRepository(&buf)
		if err != nil {
			t.Errorf("%s: saved repository does not load: %v", name, err)
		} else if back.Count() != 1 || len(back.Partitions()) != 1 {
			t.Errorf("%s: loaded Count() = %d over %v, want 1 over [p]", name, back.Count(), back.Partitions())
		}
	}
}

// lostRecordSnapshots are documents that decode but describe a
// repository they cannot be: a partition named twice (loading would
// keep only the last count), a negative count, and counts whose total
// overflows.
var lostRecordSnapshots = map[string]string{
	"duplicate": `{"partitions":[{"name":"a","count":5,"schema":{"k":"num"}},{"name":"a","count":7,"schema":{"k":"str"}}]}`,
	"negative":  `{"partitions":[{"name":"a","count":-9,"schema":{"k":"num"}}]}`,
	"overflow": `{"partitions":[{"name":"b","count":9223372036854775807,"schema":{"k":"num"}},` +
		`{"name":"a","count":1,"schema":{"k":"num"}}]}`,
}

// FuzzLoadRepository: a document LoadRepository accepts, in either
// version, must save to bytes that load to equal partitions and save
// again to the same bytes, and its Count() must equal the sum of the
// document's partition counts. The seeds are every generator's
// snapshots in both versions and the refused documents of the tests.
func FuzzLoadRepository(f *testing.F) {
	for _, snap := range goldenSnapshots(f) {
		f.Add(snap)
	}
	for _, snap := range lostRecordSnapshots {
		f.Add([]byte(snap))
	}
	f.Add([]byte(`{"partitions":[{"name":"p","count":1,"schema":{"k":"num"},"enrichment":` +
		`{"monoids":["bloom"],"params":{"hll_precision":8,"bloom_bits":1073741824,"bloom_hashes":4}}}]}`))
	for _, snap := range refusedRefSnapshots {
		f.Add([]byte(snap))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		r, err := jsi.LoadRepository(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var wire struct {
			Partitions []struct {
				Count int64 `json:"count"`
			} `json:"partitions"`
		}
		if err := json.NewDecoder(bytes.NewReader(doc)).Decode(&wire); err != nil {
			t.Fatalf("LoadRepository accepted a document encoding/json rejects: %v", err)
		}
		var sum int64
		for _, p := range wire.Partitions {
			sum += p.Count
		}
		if r.Count() != sum {
			t.Fatalf("Count() = %d, partition counts sum to %d", r.Count(), sum)
		}
		var first, second bytes.Buffer
		if err := r.Save(&first); err != nil {
			t.Fatalf("Save: %v", err)
		}
		back, err := jsi.LoadRepository(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved repository: %v\n%s", err, first.Bytes())
		}
		requireSamePartitions(t, r, back)
		if err := back.Save(&second); err != nil {
			t.Fatalf("Save after reload: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("save/load/save changed the bytes:\n%s\nthen\n%s", first.Bytes(), second.Bytes())
		}
	})
}

// goldenSnapshots returns the cases of TestRepositorySaveGolden from
// 15 records instead of 150, in both versions. At full size they reach
// 5 MB, which slows every execution and minimization of the fuzzer.
func goldenSnapshots(tb testing.TB) [][]byte {
	var out [][]byte
	for _, c := range goldenRepos(tb, 15) {
		v0, v1 := saveBoth(tb, c.repo)
		out = append(out, v0, v1)
	}
	return out
}

// TestRepositoryPartitionedEqualsSingle: fusing per-partition schemas
// equals fusing everything in one partition — the Table 8 strategy's
// correctness argument.
func TestRepositoryPartitionedEqualsSingle(t *testing.T) {
	g, _ := dataset.New("github")
	lines := bytes.SplitAfter(dataset.NDJSON(g, 90, 21), []byte("\n"))
	parts, single := jsi.NewRepository(), jsi.NewRepository()
	for i, line := range lines[:90] {
		s, err := jsi.InferJSON(line)
		if err != nil {
			t.Fatal(err)
		}
		parts.Append(fmt.Sprintf("part%d", i/30), s, 1)
		single.Append("all", s, 1)
	}
	if got, want := parts.Schema().String(), single.Schema().String(); got != want {
		t.Errorf("partitioned %s != single %s", got, want)
	}
}

// taggedBatches returns two batches of ten discriminated records each,
// with twenty distinct tags between them: more than a tagged union
// holds, so fusing the batches collapses their unions.
func taggedBatches() [2]string {
	var out [2]string
	for b := range out {
		var sb strings.Builder
		for i := 0; i < 10; i++ {
			fmt.Fprintf(&sb, `{"type": "t%d", "x": %d}`+"\n", 10*b+i, i)
		}
		out[b] = sb.String()
	}
	return out
}

// TestRepositoryLowersCollapsedUnions: a tagged union that collapses
// when finalized schemas fuse is lowered to the plain record, as
// offline inference lowers it, through Repository and Schema.Fuse.
func TestRepositoryLowersCollapsedUnions(t *testing.T) {
	opts := jsi.Options{TaggedUnions: true}
	batches := taggedBatches()
	offline, _, err := jsi.InferNDJSON([]byte(batches[0]+batches[1]), opts)
	if err != nil {
		t.Fatal(err)
	}
	want := offline.String()
	if want != "{type: Str, x: Num}" {
		t.Fatalf("offline schema = %s, want the plain record", want)
	}
	var schemas [2]*jsi.Schema
	repo := jsi.NewRepository()
	for i, b := range batches {
		s, st, err := jsi.InferNDJSON([]byte(b), opts)
		if err != nil {
			t.Fatal(err)
		}
		schemas[i] = s
		repo.Append(fmt.Sprintf("part-%d", i), s, st.Records)
		repo.Append("both", s, st.Records)
	}
	if got := repo.Schema().String(); got != want {
		t.Errorf("Repository.Schema = %s, want %s", got, want)
	}
	if got, _ := repo.PartitionSchema("both"); got.String() != want {
		t.Errorf("Repository.PartitionSchema = %s, want %s", got, want)
	}
	if got := schemas[0].Fuse(schemas[1]).String(); got != want {
		t.Errorf("Schema.Fuse = %s, want %s", got, want)
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

// rejectedGeometryLattices are enrichment lattices at a sketch
// geometry other than the fixed one (docs/ENRICHMENT.md), in their
// params or in one sketch state, or with a sketch in the retired
// invalid state. Unchecked, the first snapshot loaded after allocating
// 128 MiB for its one lattice node, the second panicked, and the third
// allocated 284 MiB for its 4,001 nodes.
func rejectedGeometryLattices() map[string]string {
	const params = `"params":{"hll_precision":8,"bloom_bits":1024,"bloom_hashes":4}`
	state := func(monoid, st string) string {
		return `{"monoids":["` + monoid + `"],` + params + `,"root":{"states":{"` + monoid + `":` + st + `}}}`
	}
	nodes := make([]string, 4000)
	for i := range nodes {
		nodes[i] = fmt.Sprintf(`"%d":{}`, i)
	}
	regs := make([]byte, 4096)
	regs[0] = 1
	out := map[string]string{
		"largest-parameters": `{"monoids":["bloom","hll"],"params":{"hll_precision":16,"bloom_bits":65536,"bloom_hashes":16},` +
			`"root":{"fields":{` + strings.Join(nodes, ",") + `}}}`,
		"hll-p12":       state("hll", `{"p":12,"regs":"`+base64.StdEncoding.EncodeToString(regs)+`"}`),
		"bloom-m2048":   state("bloom", `{"m":2048,"k":4,"bits":"`+base64.StdEncoding.EncodeToString(regs[:256])+`"}`),
		"hll-invalid":   state("hll", `{"invalid":true}`),
		"bloom-invalid": state("bloom", `{"invalid":true}`),
	}
	for _, bits := range []string{"1073741824", "9223372036854775800"} {
		out["bloom_bits "+bits] = `{"monoids":["bloom"],"params":{"hll_precision":8,"bloom_bits":` + bits + `,"bloom_hashes":4}}`
	}
	return out
}

// TestLoadRepositoryRejectsSketchGeometry: a snapshot's enrichment must
// declare the one sketch geometry, and it is rejected before any sketch
// is built.
func TestLoadRepositoryRejectsSketchGeometry(t *testing.T) {
	for name, lattice := range rejectedGeometryLattices() {
		snap := `{"partitions":[{"name":"p","count":1,"schema":{"k":"num"},"enrichment":` + lattice + `}]}`
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := jsi.LoadRepository(strings.NewReader(snap))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: snapshot loaded", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: rejecting the snapshot allocated %d bytes", name, grew)
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
