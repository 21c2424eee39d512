package jsoninference_test

// Cross-module integration tests: each one drives several subsystems
// end to end the way a user of the library would, checking the
// properties the paper promises hold across module boundaries.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
	"repro/internal/diff"
	"repro/internal/types"
)

// TestCompletenessAcrossDatasets drives the whole pipeline per dataset
// and checks the paper's completeness guarantee from the outside: every
// record conforms, and sampled witnesses of the schema conform too.
func TestCompletenessAcrossDatasets(t *testing.T) {
	for _, name := range dataset.Names() {
		g, _ := dataset.New(name)
		data := dataset.NDJSON(g, 200, 11)
		schema, stats, err := jsi.InferNDJSON(data, jsi.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stats.Records != 200 {
			t.Fatalf("%s: records = %d", name, stats.Records)
		}
		for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			ok, err := schema.Contains([]byte(line))
			if err != nil || !ok {
				t.Fatalf("%s: record rejected by its own schema: %v", name, err)
			}
		}
		for seed := int64(0); seed < 5; seed++ {
			sample, ok := schema.Sample(seed)
			if !ok {
				t.Fatalf("%s: no sample", name)
			}
			conforms, err := schema.Contains(sample)
			if err != nil || !conforms {
				t.Fatalf("%s: sample does not conform: %v", name, err)
			}
		}
	}
}

// TestEquivalenceOfInferencePaths checks that every way of inferring a
// schema — parallel NDJSON, streaming reader, per-file partitions,
// schema repository, profile — agrees on every dataset.
func TestEquivalenceOfInferencePaths(t *testing.T) {
	for _, name := range dataset.PaperNames() {
		g, _ := dataset.New(name)
		data := dataset.NDJSON(g, 150, 23)

		parallel, _, err := jsi.InferNDJSON(data, jsi.Options{Workers: 8})
		if err != nil {
			t.Fatal(err)
		}
		streamed, _, err := jsi.InferReader(bytes.NewReader(data), jsi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		prof, _, err := jsi.InferProfile(context.Background(), jsi.FromBytes(data), jsi.Options{})
		if err != nil {
			t.Fatal(err)
		}

		repo := jsi.NewRepository()
		for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			part := fmt.Sprintf("p%d", i%5)
			s, err := jsi.InferJSON([]byte(line))
			if err != nil {
				t.Fatal(err)
			}
			raw, err := s.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if err := appendViaCodec(repo, part, raw); err != nil {
				t.Fatal(err)
			}
		}
		repoSchema := repo.Schema().String()

		if !parallel.Equal(streamed) {
			t.Errorf("%s: parallel != streamed", name)
		}
		if !parallel.Equal(prof.Schema()) {
			t.Errorf("%s: parallel != profile-derived", name)
		}
		if parallel.String() != repoSchema {
			t.Errorf("%s: parallel != repository:\n%s\n%s", name, parallel, repoSchema)
		}
	}
}

// appendViaCodec simulates a distributed writer that only holds schema
// bytes: decode, fuse into the partition as one record.
func appendViaCodec(repo *jsi.Repository, part string, raw []byte) error {
	s, err := jsi.UnmarshalSchemaJSON(raw)
	if err != nil {
		return err
	}
	repo.Append(part, s, 1)
	return nil
}

// TestSchemaEvolutionWorkflow simulates the schema-evolution scenario
// from the related-work discussion: a source changes between two crawls;
// the diff over complete inferred schemas surfaces exactly the changes.
func TestSchemaEvolutionWorkflow(t *testing.T) {
	oldData := []byte(`{"id": 1, "name": "a", "retired_field": true}
{"id": 2, "name": "b", "retired_field": false}
`)
	newData := []byte(`{"id": "uuid-1", "name": "a", "added_field": {"x": 1}}
{"id": "uuid-2", "name": "b"}
`)
	oldSchema, _, err := jsi.InferNDJSON(oldData, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	newSchema, _, err := jsi.InferNDJSON(newData, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	oldT, err := types.Parse(oldSchema.String())
	if err != nil {
		t.Fatal(err)
	}
	newT, err := types.Parse(newSchema.String())
	if err != nil {
		t.Fatal(err)
	}
	entries := diff.Compare(oldT, newT)
	byPath := map[string]diff.Kind{}
	for _, e := range entries {
		byPath[e.Path] = e.Kind
	}
	if byPath["./retired_field"] != diff.Removed {
		t.Errorf("missing removal: %v", entries)
	}
	if byPath["./added_field"] != diff.Added {
		t.Errorf("missing addition: %v", entries)
	}
	if byPath["./id"] != diff.TypeChanged {
		t.Errorf("missing id type change: %v", entries)
	}
}

// TestEquivalentSchemas exercises the semantic-equivalence check across
// renderings.
func TestEquivalentSchemas(t *testing.T) {
	a, _ := jsi.ParseSchema("[]")
	b, _ := jsi.ParseSchema("[ε*]")
	if a.Equal(b) {
		t.Error("[] and [ε*] should not be structurally Equal")
	}
	if !a.EquivalentTo(b) || !b.EquivalentTo(a) {
		t.Error("[] and [ε*] should be EquivalentTo each other")
	}
	c, _ := jsi.ParseSchema("[Num*]")
	if a.EquivalentTo(c) {
		t.Error("[] and [Num*] are not equivalent")
	}
	if a.EquivalentTo(nil) {
		t.Error("EquivalentTo(nil) should be false")
	}
}

// TestPositionalPipelineConsistency: the positional policy is consistent
// across the parallel and streaming paths and refines the paper policy
// on real dataset shapes (twitter carries [Num, Num] index pairs).
func TestPositionalPipelineConsistency(t *testing.T) {
	g, _ := dataset.New("twitter")
	data := dataset.NDJSON(g, 200, 31)
	opts := jsi.Options{PreserveTupleArrays: true}
	par, _, err := jsi.InferNDJSON(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	str, _, err := jsi.InferReader(bytes.NewReader(data), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Equal(str) {
		t.Errorf("positional parallel != streaming:\n%s\n%s", par, str)
	}
	paper, _, err := jsi.InferNDJSON(data, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !par.SubschemaOf(paper) {
		t.Error("positional schema should refine the paper schema")
	}
	if !strings.Contains(par.String(), "indices: [Num, Num]") {
		t.Errorf("index pairs not preserved positionally:\n%s", par)
	}
}

// TestProjectionDrivenByExpansion wires pathquery's two halves together:
// expand a wildcard to discover paths, project a record to exactly those
// paths, and check the projection conforms to a schema inferred from
// projected data.
func TestProjectionDrivenByExpansion(t *testing.T) {
	g, _ := dataset.New("github")
	data := dataset.NDJSON(g, 120, 41)
	schema, _, err := jsi.InferNDJSON(data, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := schema.ExpandPath("$._links.*.href")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("expanded to %d paths: %+v", len(ms), ms)
	}
	paths := make([]string, len(ms))
	for i, m := range ms {
		paths[i] = m.Path
	}
	proj, err := jsi.NewProjection(paths...)
	if err != nil {
		t.Fatal(err)
	}
	line := data[:bytes.IndexByte(data, '\n')]
	got, err := proj.ApplyJSON(line)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), `"href"`) || strings.Contains(string(got), `"title"`) {
		t.Errorf("projection = %s", got)
	}
	if len(got) >= len(line) {
		t.Error("projection did not shrink the record")
	}
}

// TestPathLevelCompleteness is the paper's completeness property stated
// at path granularity: "each path that can be traversed in the
// tree-structure of each input JSON value can be traversed in the
// inferred schema as well" (Section 1). For every root-to-leaf path of
// every record, the path must expand non-emptily against the schema.
func TestPathLevelCompleteness(t *testing.T) {
	for _, name := range dataset.PaperNames() {
		g, _ := dataset.New(name)
		data := dataset.NDJSON(g, 60, 47)
		schema, _, err := jsi.InferNDJSON(data, jsi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
			var doc map[string]any
			if err := jsonUnmarshal([]byte(line), &doc); err != nil {
				t.Fatal(err)
			}
			for _, path := range leafPaths("$", doc) {
				ms, err := schema.ExpandPath(path)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if len(ms) == 0 {
					t.Fatalf("%s: value path %s missing from schema", name, path)
				}
			}
		}
	}
}

func jsonUnmarshal(data []byte, v any) error { return json.Unmarshal(data, v) }

// leafPaths enumerates the root-to-leaf paths of a decoded JSON value in
// the pathquery syntax.
func leafPaths(prefix string, v any) []string {
	switch vv := v.(type) {
	case map[string]any:
		if len(vv) == 0 {
			return []string{prefix}
		}
		var out []string
		for k, child := range vv {
			step := "." + k
			if !isBarePathKey(k) {
				step = `["` + k + `"]`
			}
			out = append(out, leafPaths(prefix+step, child)...)
		}
		return out
	case []any:
		if len(vv) == 0 {
			return []string{prefix}
		}
		var out []string
		for _, child := range vv {
			out = append(out, leafPaths(prefix+"[*]", child)...)
		}
		return out
	default:
		return []string{prefix}
	}
}

func isBarePathKey(key string) bool {
	if key == "" {
		return false
	}
	for i, r := range key {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case (r >= '0' && r <= '9') || r == '-':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
