package jsoninference_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
	"repro/internal/types"
)

func TestInferValue(t *testing.T) {
	schema, err := jsi.InferValue(map[string]any{
		"id":   1.0,
		"name": "x",
		"tags": []any{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "{id: Num, name: Str, tags: [Str*]}"
	if schema.String() != want {
		t.Errorf("schema = %s, want %s", schema, want)
	}
	if _, err := jsi.InferValue(struct{}{}); err == nil {
		t.Error("unsupported Go type accepted")
	}
}

func TestInferJSON(t *testing.T) {
	schema, err := jsi.InferJSON([]byte(`{"a": [1, "two", {"b": null}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := "{a: [(Num + Str + {b: Null})*]}"
	if schema.String() != want {
		t.Errorf("schema = %s, want %s", schema, want)
	}
	if _, err := jsi.InferJSON([]byte(`{"a":`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := jsi.InferJSON([]byte(`1 2`)); err == nil {
		t.Error("multiple values accepted by InferJSON")
	}
}

func TestInferNDJSON(t *testing.T) {
	data := []byte(`{"a": 1}
{"a": 2, "b": "x"}
{"a": "three"}
`)
	schema, stats, err := jsi.InferNDJSON(data, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := "{a: Num + Str, b: Str?}"
	if schema.String() != want {
		t.Errorf("schema = %s, want %s", schema, want)
	}
	if stats.Records != 3 {
		t.Errorf("Records = %d", stats.Records)
	}
	if stats.DistinctTypes != 3 {
		t.Errorf("DistinctTypes = %d", stats.DistinctTypes)
	}
	if stats.MinTypeSize != 3 || stats.MaxTypeSize != 5 {
		t.Errorf("type sizes = %d..%d", stats.MinTypeSize, stats.MaxTypeSize)
	}
	if stats.Bytes != int64(len(data)) {
		t.Errorf("Bytes = %d, want %d", stats.Bytes, len(data))
	}
}

// TestTaggedUnionsTwitterAcceptance is the PR's acceptance criterion
// for tagged-union inference: on a Twitter-style mix of tweets and
// control records, the default paper policy collapses everything into
// one record where every shape's fields go optional, while
// Options.TaggedUnions separates the shapes into a wrapper-discriminated
// union with NO spurious optional fields in any branch.
func TestTaggedUnionsTwitterAcceptance(t *testing.T) {
	data := []byte(strings.Join([]string{
		`{"created_at":"2017-03-21T10:00:00Z","id":1,"text":"hello","user":{"id":7,"name":"ann"}}`,
		`{"delete":{"status":{"id":5,"user_id":7}}}`,
		`{"created_at":"2017-03-21T10:00:01Z","id":2,"text":"world","user":{"id":8,"name":"bob"}}`,
		`{"scrub_geo":{"user_id":7,"up_to_status_id":9}}`,
		`{"created_at":"2017-03-21T10:00:02Z","id":3,"text":"again","user":{"id":7,"name":"ann"}}`,
		`{"delete":{"status":{"id":6,"user_id":8}}}`,
	}, "\n"))

	// Paper policy: one fused record, every top-level field optional —
	// tweet fields leak into deletes and vice versa.
	paper, _, err := jsi.InferNDJSON(data, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	paperType, err := types.UnmarshalJSON([]byte(mustMarshal(t, paper)))
	if err != nil {
		t.Fatal(err)
	}
	paperRec, ok := paperType.(*types.Record)
	if !ok {
		t.Fatalf("paper schema is %T, want record: %s", paperType, paper)
	}
	for _, key := range []string{"delete", "text"} {
		f, ok := paperRec.Get(key)
		if !ok || !f.Optional {
			t.Errorf("paper policy: field %q optional = %v, want a spurious optional (got %s)", key, f.Optional, paper)
		}
	}

	// Tagged policy: a wrapper union with clean branches.
	tagged, _, err := jsi.InferNDJSON(data, jsi.Options{TaggedUnions: true})
	if err != nil {
		t.Fatal(err)
	}
	taggedType, err := types.UnmarshalJSON([]byte(mustMarshal(t, tagged)))
	if err != nil {
		t.Fatal(err)
	}
	v, ok := taggedType.(*types.Variants)
	if !ok {
		t.Fatalf("tagged schema is %T, want variants: %s", taggedType, tagged)
	}
	if !v.Wrapper() || v.Collapsed() {
		t.Fatalf("tagged schema is not a wrapper union: %s", tagged)
	}
	if v.Len() != 2 {
		t.Fatalf("tagged union has %d cases, want 2 (delete, scrub_geo): %s", v.Len(), tagged)
	}
	for _, tag := range []string{"delete", "scrub_geo"} {
		c, ok := v.Get(tag)
		if !ok {
			t.Fatalf("tagged union missing %q case: %s", tag, tagged)
		}
		if c.Type.Len() != 1 {
			t.Errorf("%q case has %d fields, want 1: %s", tag, c.Type.Len(), tagged)
		}
		if _, leak := c.Type.Get("text"); leak {
			t.Errorf("tweet field leaked into the %q branch: %s", tag, tagged)
		}
		for _, f := range c.Type.Fields() {
			if f.Optional {
				t.Errorf("spurious optional %q in the %q branch: %s", f.Key, tag, tagged)
			}
		}
	}
	other := v.Other()
	if other == nil {
		t.Fatalf("tagged union has no catch-all tweet branch: %s", tagged)
	}
	if _, leak := other.Get("delete"); leak {
		t.Errorf("delete field leaked into the tweet branch: %s", tagged)
	}
	for _, f := range other.Fields() {
		if f.Optional {
			t.Errorf("spurious optional %q in the tweet branch: %s", f.Key, tagged)
		}
	}

	// The union still accepts both record shapes.
	for _, rec := range []string{
		`{"created_at":"2017-03-21T11:00:00Z","id":4,"text":"new","user":{"id":9,"name":"eve"}}`,
		`{"delete":{"status":{"id":7,"user_id":9}}}`,
	} {
		ok, err := tagged.Contains([]byte(rec))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("tagged schema rejects %s\nschema: %s", rec, tagged)
		}
	}
	// And the tagged schema refines the paper's: every instance it
	// accepts, the paper schema accepts too.
	if !tagged.SubschemaOf(paper) {
		t.Errorf("tagged schema is not a subschema of the paper schema\ntagged: %s\n paper: %s", tagged, paper)
	}

	// The full synthetic Twitter generator (≈3% deletes and scrub_geos
	// mixed into tweets) must produce the same shape of union.
	g, err := dataset.New("twitter")
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := jsi.InferNDJSON(dataset.NDJSON(g, 2000, 1), jsi.Options{TaggedUnions: true})
	if err != nil {
		t.Fatal(err)
	}
	s := full.String()
	if !strings.HasPrefix(s, "wrapper{") || !strings.Contains(s, "delete:") {
		t.Errorf("twitter generator did not infer a wrapper union: %s", s)
	}
}

// TestEmptyUnionKeysMeanDefault: an empty UnionKeys probes the default
// discriminators, as nil does, rather than none.
func TestEmptyUnionKeysMeanDefault(t *testing.T) {
	data := []byte(`{"type":"a","x":1}` + "\n" + `{"type":"b","y":2}` + "\n")
	const want = "variants(type){a: {type: Str, x: Num}, b: {type: Str, y: Num}}"
	for _, keys := range [][]string{nil, {}} {
		s, _, err := jsi.InferNDJSON(data, jsi.Options{TaggedUnions: true, UnionKeys: keys})
		if err != nil {
			t.Fatal(err)
		}
		if s.String() != want {
			t.Errorf("UnionKeys %#v: schema = %s, want %s", keys, s, want)
		}
	}
}

// TestTagLengthBound: a discriminator value of up to 40 bytes is a
// tag, a longer one is data.
func TestTagLengthBound(t *testing.T) {
	for _, n := range []int{40, 41} {
		a, b := strings.Repeat("a", n), strings.Repeat("b", n)
		data := []byte(`{"type":"` + a + `","x":1}` + "\n" + `{"type":"` + b + `","y":2}` + "\n")
		s, _, err := jsi.InferNDJSON(data, jsi.Options{TaggedUnions: true})
		if err != nil {
			t.Fatal(err)
		}
		want := "variants(type){" + a + ": {type: Str, x: Num}, " + b + ": {type: Str, y: Num}}"
		if n > 40 {
			want = "{type: Str, x: Num?, y: Num?}"
		}
		if s.String() != want {
			t.Errorf("%d-byte tags: schema = %s, want %s", n, s, want)
		}
	}
}

// mustMarshal renders a schema's canonical codec bytes.
func mustMarshal(t *testing.T, s *jsi.Schema) string {
	t.Helper()
	b, err := s.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestInferNDJSONEmptyInput(t *testing.T) {
	schema, stats, err := jsi.InferNDJSON(nil, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !schema.IsEmpty() {
		t.Errorf("schema of empty input = %s", schema)
	}
	if stats.Records != 0 {
		t.Errorf("Records = %d", stats.Records)
	}
}

func TestInferNDJSONError(t *testing.T) {
	if _, _, err := jsi.InferNDJSON([]byte(`{"a":1}`+"\n"+`{"bad`), jsi.Options{}); err == nil {
		t.Error("malformed record accepted")
	}
}

func TestInferReaderMatchesNDJSON(t *testing.T) {
	g, _ := dataset.New("twitter")
	data := dataset.NDJSON(g, 150, 5)
	parallel, pStats, err := jsi.InferNDJSON(data, jsi.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	streaming, sStats, err := jsi.InferReader(strings.NewReader(string(data)), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !parallel.Equal(streaming) {
		t.Errorf("streaming schema differs:\nparallel:  %s\nstreaming: %s", parallel, streaming)
	}
	if pStats.Records != sStats.Records {
		t.Errorf("record counts differ: %d vs %d", pStats.Records, sStats.Records)
	}
	if sStats.MinTypeSize != pStats.MinTypeSize || sStats.MaxTypeSize != pStats.MaxTypeSize {
		t.Errorf("size stats differ: %d..%d vs %d..%d",
			sStats.MinTypeSize, sStats.MaxTypeSize, pStats.MinTypeSize, pStats.MaxTypeSize)
	}
}

func TestInferReaderError(t *testing.T) {
	_, _, err := jsi.InferReader(strings.NewReader(`{"a":1} {"dup":1,"dup":2}`), jsi.Options{})
	if err == nil || !strings.Contains(err.Error(), `syntax error at offset 17: duplicate object key "dup"`) {
		t.Errorf("err = %v, want the duplicate key at offset 17", err)
	}
}

func TestInferFiles(t *testing.T) {
	dir := t.TempDir()
	g, _ := dataset.New("github")
	all := dataset.NDJSON(g, 60, 9)
	lines := strings.SplitAfter(strings.TrimRight(string(all), "\n"), "\n")
	third := len(lines) / 3
	var paths []string
	for i := 0; i < 3; i++ {
		path := filepath.Join(dir, "part"+string(rune('a'+i))+".ndjson")
		chunk := strings.Join(lines[i*third:(i+1)*third], "")
		if err := os.WriteFile(path, []byte(chunk), 0o600); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	split, stats, err := jsi.InferFiles(paths, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	whole, _, err := jsi.InferNDJSON(all, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !split.Equal(whole) {
		t.Errorf("per-file fusion differs from whole-dataset inference:\n%s\nvs\n%s", split, whole)
	}
	if stats.Records != 60 {
		t.Errorf("Records = %d", stats.Records)
	}
	if _, _, err := jsi.InferFiles([]string{filepath.Join(dir, "missing.ndjson")}, jsi.Options{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestSchemaFuseAndEmpty(t *testing.T) {
	a, _ := jsi.InferJSON([]byte(`{"x": 1}`))
	b, _ := jsi.InferJSON([]byte(`{"y": "s"}`))
	fused := a.Fuse(b)
	want := "{x: Num?, y: Str?}"
	if fused.String() != want {
		t.Errorf("fused = %s, want %s", fused, want)
	}
	if !jsi.EmptySchema().Fuse(a).Equal(a) {
		t.Error("ε is not the identity of Fuse")
	}
	if !a.Fuse(nil).Equal(a) {
		t.Error("Fuse(nil) should be identity")
	}
	if jsi.EmptySchema().IsEmpty() != true {
		t.Error("EmptySchema not empty")
	}
}

func TestSchemaContains(t *testing.T) {
	schema, err := jsi.ParseSchema("{a: Num, b: Str?}")
	if err != nil {
		t.Fatal(err)
	}
	ok, err := schema.Contains([]byte(`{"a": 5}`))
	if err != nil || !ok {
		t.Errorf("Contains = %v, %v", ok, err)
	}
	ok, err = schema.Contains([]byte(`{"a": "no"}`))
	if err != nil || ok {
		t.Errorf("Contains wrong-typed = %v, %v", ok, err)
	}
	if _, err := schema.Contains([]byte(`{`)); err == nil {
		t.Error("malformed value accepted by Contains")
	}
}

func TestSchemaSubschemaOf(t *testing.T) {
	small, _ := jsi.ParseSchema("{a: Num}")
	big, _ := jsi.ParseSchema("{a: Num + Str, b: Bool?}")
	if !small.SubschemaOf(big) {
		t.Error("small should be a subschema of big")
	}
	if big.SubschemaOf(small) {
		t.Error("big should not be a subschema of small")
	}
	if small.SubschemaOf(nil) {
		t.Error("SubschemaOf(nil) should be false")
	}
}

func TestSchemaJSONSchemaExport(t *testing.T) {
	schema, _ := jsi.ParseSchema("{a: Num, b: Str?}")
	data, err := schema.JSONSchema()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"type": "object"`, `"required"`, `"$schema"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("JSONSchema output missing %q:\n%s", want, data)
		}
	}
}

func TestSchemaCodecRoundTrip(t *testing.T) {
	orig, _ := jsi.ParseSchema("{a: (Num + Str)?, b: [{c: Null}*]}")
	data, err := orig.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := jsi.UnmarshalSchemaJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if !orig.Equal(back) {
		t.Errorf("round trip %s -> %s", orig, back)
	}
	if _, err := jsi.UnmarshalSchemaJSON([]byte(`{"k":"bogus"}`)); err == nil {
		t.Error("bad codec input accepted")
	}
}

func TestParseSchemaErrors(t *testing.T) {
	if _, err := jsi.ParseSchema("{a: Bogus}"); err == nil {
		t.Error("bad schema syntax accepted")
	}
}

func TestSchemaIndentParsesBack(t *testing.T) {
	schema, _ := jsi.InferJSON([]byte(`{"a": {"b": [1, "x"]}, "c": null}`))
	indented := schema.Indent()
	back, err := jsi.ParseSchema(indented)
	if err != nil {
		t.Fatalf("Indent output does not parse: %v\n%s", err, indented)
	}
	if !schema.Equal(back) {
		t.Error("Indent round trip changed the schema")
	}
}

func TestSchemaSizeMatchesPaperMeasure(t *testing.T) {
	schema, _ := jsi.ParseSchema("{a: Num, b: Str?}")
	if schema.Size() != 5 {
		t.Errorf("Size = %d, want 5", schema.Size())
	}
}

func TestEndToEndPaperDatasets(t *testing.T) {
	// Smoke-test the full public pipeline on each synthetic dataset.
	for _, name := range dataset.PaperNames() {
		g, _ := dataset.New(name)
		data := dataset.NDJSON(g, 300, 3)
		schema, stats, err := jsi.InferNDJSON(data, jsi.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if schema.IsEmpty() {
			t.Fatalf("%s: empty schema", name)
		}
		if stats.Records != 300 {
			t.Fatalf("%s: records = %d", name, stats.Records)
		}
		// Completeness (Theorem 5.2 corollary): every record conforms.
		for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			ok, err := schema.Contains([]byte(line))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !ok {
				t.Fatalf("%s: inferred schema rejects its own record %s", name, line[:60])
			}
		}
	}
}

func TestInferFileMatchesNDJSON(t *testing.T) {
	g, _ := dataset.New("nytimes")
	data := dataset.NDJSON(g, 200, 27)
	path := filepath.Join(t.TempDir(), "big.ndjson")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	// Tiny chunks force many parallel chunk fusions.
	streamed, sStats, err := jsi.InferFile(path, jsi.Options{ChunkBytes: 8 << 10, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	whole, wStats, err := jsi.InferNDJSON(data, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !streamed.Equal(whole) {
		t.Errorf("InferFile schema differs:\n%s\nvs\n%s", streamed, whole)
	}
	if sStats.Records != wStats.Records || sStats.DistinctTypes != wStats.DistinctTypes {
		t.Errorf("stats differ: %+v vs %+v", sStats, wStats)
	}
	if sStats.Bytes != int64(len(data)) {
		t.Errorf("Bytes = %d, want %d", sStats.Bytes, len(data))
	}
}

func TestInferFileErrors(t *testing.T) {
	if _, _, err := jsi.InferFile("/no/such/file.ndjson", jsi.Options{}); err == nil {
		t.Error("missing file accepted")
	}
	path := filepath.Join(t.TempDir(), "bad.ndjson")
	os.WriteFile(path, []byte("{\"a\":1}\n{\"broken\n"), 0o600)
	if _, _, err := jsi.InferFile(path, jsi.Options{}); err == nil {
		t.Error("malformed file accepted")
	}
}

func TestInferFileEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.ndjson")
	os.WriteFile(path, nil, 0o600)
	schema, stats, err := jsi.InferFile(path, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !schema.IsEmpty() || stats.Records != 0 {
		t.Errorf("empty file: schema=%s records=%d", schema, stats.Records)
	}
}
