package jsoninference_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
)

// inferProfile profiles data through InferProfile over FromBytes.
func inferProfile(t *testing.T, data []byte) *jsi.Profile {
	t.Helper()
	p, _, err := jsi.InferProfile(context.Background(), jsi.FromBytes(data), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestProfileOfRecords(t *testing.T) {
	data := []byte(`{"id": 1, "name": "ada", "score": 3.5}
{"id": 2, "name": "bob"}
{"id": 3, "name": "eve", "score": 9.5}
`)
	p := inferProfile(t, data)
	if p.Records() != 3 {
		t.Errorf("Records = %d", p.Records())
	}
	out := p.String()
	for _, want := range []string{"profile of 3 values", `"score"? ⟨67%⟩`, "1..3"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
	// The profile's schema equals pipeline inference.
	schema, _, err := jsi.InferNDJSON(data, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Schema().Equal(schema) {
		t.Errorf("profile schema %s != inferred %s", p.Schema(), schema)
	}
}

// TestProfileMergeOfHalves: profiling two halves through the streaming
// Source and merging renders exactly the whole profile.
func TestProfileMergeOfHalves(t *testing.T) {
	g, _ := dataset.New("twitter")
	data := dataset.NDJSON(g, 80, 21)
	whole := inferProfile(t, data)
	half := len(data) / 2
	for data[half] != '\n' {
		half++
	}
	stream := func(part []byte) *jsi.Profile {
		p, _, err := jsi.InferProfile(context.Background(), jsi.FromReader(bytes.NewReader(part)), jsi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := stream(data[:half+1]), stream(data[half+1:])
	a.Merge(b)
	a.Merge(nil) // no-op
	if a.Records() != whole.Records() {
		t.Errorf("records %d vs %d", a.Records(), whole.Records())
	}
	if a.String() != whole.String() {
		t.Error("merged profile differs from whole profile")
	}
}

func TestProfileErrors(t *testing.T) {
	ctx := context.Background()
	if _, _, err := jsi.InferProfile(ctx, jsi.FromBytes([]byte(`{"bad`)), jsi.Options{}); err == nil {
		t.Error("malformed input accepted")
	}
	if _, _, err := jsi.InferProfile(ctx, jsi.FromReader(strings.NewReader(`{"a":1} [`)), jsi.Options{}); err == nil {
		t.Error("malformed stream accepted")
	}
}

func TestPreserveTupleArrays(t *testing.T) {
	data := []byte(`{"loc": [2.35, 48.85]}
{"loc": [-74.0, 40.7]}
`)
	paper, _, err := jsi.InferNDJSON(data, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if paper.String() != "{loc: [Num*]}" {
		t.Errorf("paper schema = %s", paper)
	}
	pos, _, err := jsi.InferNDJSON(data, jsi.Options{PreserveTupleArrays: true})
	if err != nil {
		t.Fatal(err)
	}
	if pos.String() != "{loc: [Num, Num]}" {
		t.Errorf("positional schema = %s", pos)
	}
	// The positional schema is strictly more precise.
	if !pos.SubschemaOf(paper) {
		t.Error("positional schema should be a subschema of the paper schema")
	}
	ok, err := pos.Contains([]byte(`{"loc": [1, 2, 3]}`))
	if err != nil || ok {
		t.Errorf("positional schema accepted a triple: %v %v", ok, err)
	}
	// The streaming path agrees.
	streamed, _, err := jsi.InferReader(strings.NewReader(string(data)), jsi.Options{PreserveTupleArrays: true})
	if err != nil {
		t.Fatal(err)
	}
	if !streamed.Equal(pos) {
		t.Errorf("streaming positional schema %s != %s", streamed, pos)
	}
}

func TestExpandPath(t *testing.T) {
	schema, err := jsi.ParseSchema("{user: {id: Num, name: Str?}, tags: [{k: Str}*]}")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := schema.ExpandPath("$.user.*")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("matches = %+v", ms)
	}
	if ms[0].Path != "$.user.id" || ms[0].Type != "Num" || ms[0].CanMiss {
		t.Errorf("match 0 = %+v", ms[0])
	}
	if ms[1].Path != "$.user.name" || !ms[1].CanMiss {
		t.Errorf("match 1 = %+v", ms[1])
	}
	// Dead path.
	ms, err = schema.ExpandPath("$.nope.deeper")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Errorf("dead path matched: %+v", ms)
	}
	// Parse error surfaces.
	if _, err := schema.ExpandPath("no-dollar"); err == nil {
		t.Error("bad path accepted")
	}
}

func TestProjection(t *testing.T) {
	proj, err := jsi.NewProjection("$.headline.main", "$.keywords[*].value")
	if err != nil {
		t.Fatal(err)
	}
	got, err := proj.ApplyJSON([]byte(`{
		"headline": {"main": "Title", "kicker": "drop me"},
		"keywords": [{"rank": 1, "value": "keep"}],
		"body": "enormous text to drop"
	}`))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"headline":{"main":"Title"},"keywords":[{"value":"keep"}]}`
	if string(got) != want {
		t.Errorf("projection = %s, want %s", got, want)
	}
	if _, err := proj.ApplyJSON([]byte(`{`)); err == nil {
		t.Error("malformed value accepted")
	}
	if _, err := jsi.NewProjection("bad path"); err == nil {
		t.Error("bad projection path accepted")
	}
}

func TestSchemaSample(t *testing.T) {
	schema, err := jsi.ParseSchema("{id: Num, name: Str?, tags: [(Num + Str)*]}")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 20; seed++ {
		sample, ok := schema.Sample(seed)
		if !ok {
			t.Fatal("no sample produced")
		}
		conforms, err := schema.Contains(sample)
		if err != nil {
			t.Fatalf("sample unparseable: %v (%s)", err, sample)
		}
		if !conforms {
			t.Fatalf("sample %s does not conform to %s", sample, schema)
		}
	}
	// Determinism per seed.
	a, _ := schema.Sample(5)
	b, _ := schema.Sample(5)
	if string(a) != string(b) {
		t.Error("Sample not deterministic for a fixed seed")
	}
	if _, ok := jsi.EmptySchema().Sample(1); ok {
		t.Error("ε should produce no sample")
	}
}

func TestSampleOfInferredSchemaConforms(t *testing.T) {
	g, _ := dataset.New("github")
	schema, _, err := jsi.InferNDJSON(dataset.NDJSON(g, 100, 17), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		sample, ok := schema.Sample(seed)
		if !ok {
			t.Fatal("no sample")
		}
		conforms, err := schema.Contains(sample)
		if err != nil || !conforms {
			t.Fatalf("seed %d: conforms=%v err=%v", seed, conforms, err)
		}
	}
}

func TestExpandOnInferredTwitterSchema(t *testing.T) {
	g, _ := dataset.New("twitter")
	schema, _, err := jsi.InferNDJSON(dataset.NDJSON(g, 300, 5), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := schema.ExpandPath("$.entities.hashtags[*].text")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Type != "Str" {
		t.Errorf("hashtag text = %+v", ms)
	}
}

func TestAbstractKeys(t *testing.T) {
	g, _ := dataset.New("wikidata")
	schema, _, err := jsi.InferNDJSON(dataset.NDJSON(g, 200, 13), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	abstracted := schema.AbstractKeys(0)
	if abstracted.Size() > schema.Size()/4 {
		t.Errorf("abstraction saved too little: %d -> %d", schema.Size(), abstracted.Size())
	}
	if !schema.SubschemaOf(abstracted) {
		t.Error("abstraction must be a sound widening")
	}
	if !strings.Contains(abstracted.String(), "{*:") {
		t.Errorf("no map types in %s", abstracted)
	}
	// Original records still conform.
	sample, ok := schema.Sample(1)
	if !ok {
		t.Fatal("no sample")
	}
	conforms, err := abstracted.Contains(sample)
	if err != nil || !conforms {
		t.Errorf("sample of concrete schema rejected by abstracted one: %v", err)
	}
}

func TestProfileCodecFacade(t *testing.T) {
	g, _ := dataset.New("github")
	p := inferProfile(t, dataset.NDJSON(g, 40, 3))
	data, err := p.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := jsi.UnmarshalProfileJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != p.String() || back.Records() != p.Records() {
		t.Error("profile codec round trip differs")
	}
	if !back.Schema().Equal(p.Schema()) {
		t.Error("derived schema differs after round trip")
	}
	if again, err := back.MarshalJSON(); err != nil || !bytes.Equal(again, data) {
		t.Errorf("re-encoding the decoded profile differs (err %v)", err)
	}
	// The decoded profile keeps merging.
	more := inferProfile(t, dataset.NDJSON(g, 20, 9))
	back.Merge(more)
	if back.Records() != p.Records()+20 {
		t.Errorf("merged records = %d", back.Records())
	}
	// The empty profile round-trips too.
	empty := inferProfile(t, nil)
	data, err = empty.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if back, err := jsi.UnmarshalProfileJSON(data); err != nil || back.Records() != 0 || back.String() != empty.String() {
		t.Errorf("empty round trip: %v", err)
	}
	for _, bad := range []string{
		"garbage",
		// The former {count, root} encoding carries no lattice.
		`{"count":1,"root":{"total":1,"kinds":{"num":{"count":1,"minNum":1,"maxNum":1,"sumNum":1}}}}`,
		// A lattice without the monoids a profile renders from.
		`{"schema":{"k":"num"},"lattice":{"monoids":["hll"],"params":{"hll_precision":8,"bloom_bits":1024,"bloom_hashes":4}}}`,
	} {
		if _, err := jsi.UnmarshalProfileJSON([]byte(bad)); err == nil {
			t.Errorf("accepted %s", bad)
		}
	}
}
