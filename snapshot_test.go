package jsoninference_test

// Snapshot versions: version 1 (Save's table of shared shapes and
// refs) and version 0 (the indented tree, written by the oracle) load
// to the same repository, refs are checked and bounded, and a
// repository loaded as a DAG behaves byte for byte like the tree.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
	"repro/internal/jsontext"
	"repro/internal/types"
)

// requireSamePartitions fails unless a and b hold the same partition
// names and counts, equal stored schemas and equal lattice bytes.
func requireSamePartitions(t testing.TB, a, b *jsi.Repository) {
	t.Helper()
	names := a.Partitions()
	if got := b.Partitions(); !slices.Equal(names, got) {
		t.Fatalf("partitions %q, want %q", got, names)
	}
	for _, name := range names {
		ca, _ := a.PartitionCount(name)
		cb, _ := b.PartitionCount(name)
		sa, la, err := jsi.StoredPartition(a, name)
		if err != nil {
			t.Fatal(err)
		}
		sb, lb, err := jsi.StoredPartition(b, name)
		if err != nil {
			t.Fatal(err)
		}
		if ca != cb || !types.Equal(sa, sb) || !bytes.Equal(la, lb) {
			t.Fatalf("partition %q: %d records of %s, want %d of %s (lattices equal: %t)", name, cb, sb, ca, sa, bytes.Equal(la, lb))
		}
	}
}

// TestRepositoryLoadsBothVersions: every case of
// TestRepositorySaveGolden loads from its version 0 bytes and from its
// version 1 bytes to the partitions it was saved from, and saves back
// to the same version 1 bytes either way.
func TestRepositoryLoadsBothVersions(t *testing.T) {
	for _, c := range goldenRepos(t, 150) {
		v0, v1 := saveBoth(t, c.repo)
		for i, doc := range [][]byte{v0, v1} {
			back, err := jsi.LoadRepository(bytes.NewReader(doc))
			if err != nil {
				t.Fatalf("%s version %d: %v", c.key, i, err)
			}
			requireSamePartitions(t, c.repo, back)
			var again bytes.Buffer
			if err := back.Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), v1) {
				t.Errorf("%s: version %d reloaded saves other bytes than version 1", c.key, i)
			}
		}
	}
}

// nestedRefs is a version 1 snapshot whose table doubles: entry 0 is
// {a: Num, b: Num} and entry i is {a: ref i-1, b: ref i-1}, so entry i
// expands to 2^(i+3) - 3 nodes. Partition p's schema is a ref to entry
// root; more partitions follow, each with its schema.
func nestedRefs(n, root int, more ...string) []byte {
	var b bytes.Buffer
	b.WriteString(`{"version":1,"shapes":[{"k":"record","fields":[{"key":"a","type":{"k":"num"}},{"key":"b","type":{"k":"num"}}]}`)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, `,{"k":"record","fields":[{"key":"a","type":{"ref":%d}},{"key":"b","type":{"ref":%d}}]}`, i-1, i-1)
	}
	fmt.Fprintf(&b, `],"partitions":[{"name":"p","count":1,"schema":{"ref":%d}}`, root)
	for i, schema := range more {
		fmt.Fprintf(&b, `,{"name":"q%d","count":1,"schema":%s}`, i, schema)
	}
	b.WriteString("]}")
	return b.Bytes()
}

// repChain is a snapshot whose one schema is n arrays nested around
// Num, [[…[Num*]…*]*]: in version 0 spelled out, in version 1 as a
// table whose entry i is entry i-1 in one more array.
func repChain(version, n int) []byte {
	if version == 0 {
		return []byte(`{"partitions":[{"name":"p","count":1,"schema":` +
			strings.Repeat(`{"k":"rep","elem":`, n) + `{"k":"num"}` + strings.Repeat("}", n) + "}]}")
	}
	var b bytes.Buffer
	b.WriteString(`{"version":1,"shapes":[{"k":"rep","elem":{"k":"num"}}`)
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, `,{"k":"rep","elem":{"ref":%d}}`, i-1)
	}
	fmt.Fprintf(&b, `],"partitions":[{"name":"p","count":1,"schema":{"ref":%d}}]}`, n-1)
	return b.Bytes()
}

// refusedRefSnapshots are version 1 documents and refs LoadRepository
// refuses: refs that name no earlier entry or are no index, refs
// outside a snapshot's table or beside other members, the version
// member out of place or unknown, and schemas that expand past
// types.MaxSnapshotSize nodes. schemad answers each with a 400
// (internal/serving's TestSnapshotPutRejectsRefs).
var refusedRefSnapshots = map[string]string{
	"forward":          `{"version":1,"shapes":[{"k":"rep","elem":{"ref":1}},{"k":"rep","elem":{"k":"num"}}],"partitions":[]}`,
	"self":             `{"version":1,"shapes":[{"k":"rep","elem":{"ref":0}}],"partitions":[]}`,
	"negative":         `{"version":1,"shapes":[{"k":"rep","elem":{"k":"num"}}],"partitions":[{"name":"p","count":1,"schema":{"ref":-1}}]}`,
	"fraction":         `{"version":1,"shapes":[{"k":"rep","elem":{"k":"num"}}],"partitions":[{"name":"p","count":1,"schema":{"ref":0.5}}]}`,
	"integral float":   `{"version":1,"shapes":[{"k":"rep","elem":{"k":"num"}}],"partitions":[{"name":"p","count":1,"schema":{"ref":0.0}}]}`,
	"exponent":         `{"version":1,"shapes":[{"k":"rep","elem":{"k":"num"}}],"partitions":[{"name":"p","count":1,"schema":{"ref":0e0}}]}`,
	"string":           `{"version":1,"shapes":[{"k":"rep","elem":{"k":"num"}}],"partitions":[{"name":"p","count":1,"schema":{"ref":"0"}}]}`,
	"out of range":     `{"version":1,"shapes":[{"k":"rep","elem":{"k":"num"}}],"partitions":[{"name":"p","count":1,"schema":{"ref":1}}]}`,
	"huge index":       `{"version":1,"shapes":[{"k":"rep","elem":{"k":"num"}}],"partitions":[{"name":"p","count":1,"schema":{"ref":99999999999999999999}}]}`,
	"no table":         `{"version":1,"partitions":[{"name":"p","count":1,"schema":{"ref":0}}]}`,
	"ref with a kind":  `{"version":1,"shapes":[{"k":"rep","elem":{"k":"num"}}],"partitions":[{"name":"p","count":1,"schema":{"ref":0,"k":"num"}}]}`,
	"ref in version 0": `{"partitions":[{"name":"p","count":1,"schema":{"ref":0}}]}`,
	"shapes in version 0": `{"version":0,"shapes":[{"k":"rep","elem":{"k":"num"}}],` +
		`"partitions":[{"name":"p","count":1,"schema":{"ref":0}}]}`,
	"version 2":            `{"version":2,"shapes":[],"partitions":[]}`,
	"version 1.0":          `{"version":1.0,"shapes":[],"partitions":[]}`,
	"version not first":    `{"partitions":[],"version":1,"shapes":[]}`,
	"shapes after use":     `{"version":1,"partitions":[{"name":"p","count":1,"schema":{"ref":0}}],"shapes":[{"k":"num"}]}`,
	"entry past the cap":   string(nestedRefs(24, 0)),
	"schemas past the cap": string(nestedRefs(20, 19, `{"ref":0}`)),
}

// TestLoadRepositoryRejectsRefs: every refusedRefSnapshots document is
// an error, and UnmarshalSchemaJSON, the public codec, takes no ref.
func TestLoadRepositoryRejectsRefs(t *testing.T) {
	for name, snap := range refusedRefSnapshots {
		if r, err := jsi.LoadRepository(strings.NewReader(snap)); err == nil {
			t.Errorf("%s: loaded %v", name, r.Partitions())
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
	if _, err := jsi.UnmarshalSchemaJSON([]byte(`{"ref":0}`)); err == nil || !strings.Contains(err.Error(), "outside a snapshot") {
		t.Errorf("UnmarshalSchemaJSON of a ref: %v, want an error", err)
	}
}

// TestSnapshotCaps: the two caps hold at their edge, and Save refuses
// what LoadRepository would. Schemas that expand to exactly
// types.MaxSnapshotSize - 3 nodes load and save back; growing them by
// four nodes with Append makes Save fail. A schema nests as deep in
// version 1 as in version 0 and no deeper: one more array fails both,
// and Save refuses a schema that Append nested deeper.
func TestSnapshotCaps(t *testing.T) {
	r, err := jsi.LoadRepository(bytes.NewReader(nestedRefs(20, 19)))
	if err != nil {
		t.Fatalf("schemas at the cap: %v", err)
	}
	if got, want := r.Schema().Size(), types.MaxSnapshotSize-3; got != want {
		t.Fatalf("Size() = %d, want %d", got, want)
	}
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatalf("Save at the cap: %v", err)
	}
	if back, err := jsi.LoadRepository(&buf); err != nil {
		t.Fatalf("reloading at the cap: %v", err)
	} else {
		requireSamePartitions(t, r, back)
	}
	more, err := jsi.ParseSchema("{c: Num, d: Num}")
	if err != nil {
		t.Fatal(err)
	}
	r.Append("p", more, 1)
	if err := r.Save(&buf); err == nil {
		t.Error("Save wrote schemas past the cap")
	}

	// The schema's innermost object sits at depth 3 + n + 1.
	deepest := jsontext.MaxNesting - 4
	for _, n := range []int{deepest, deepest + 1} {
		for version := 0; version <= 1; version++ {
			r, err := jsi.LoadRepository(bytes.NewReader(repChain(version, n)))
			if (err == nil) != (n == deepest) {
				t.Fatalf("version %d with %d arrays: %v", version, n, err)
			}
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			if err := r.Save(&buf); err != nil {
				t.Fatalf("version %d with %d arrays: Save: %v", version, n, err)
			}
			if _, err := jsi.LoadRepository(&buf); err != nil {
				t.Fatalf("version %d with %d arrays: reloading: %v", version, n, err)
			}
			// A union around the arrays nests them two levels deeper.
			r.Append("p", more, 1)
			if err := r.Save(io.Discard); err == nil {
				t.Errorf("version %d: Save wrote a schema nested past the limit", version)
			}
		}
	}
}

// TestRepositoryDAGMatchesTree: for every generator and policy, a
// repository loaded from version 1, whose repeated shapes are shared
// nodes, renders its schemas byte for byte as one loaded from version
// 0, a tree: String, the JSON Schema export and the codec, for the
// global schema and each partition's, before and after one more
// Append; and its schemas admit the same records. Two partitions with
// equal schemas load as one node.
func TestRepositoryDAGMatchesTree(t *testing.T) {
	policies := []struct {
		name string
		opts jsi.Options
	}{
		{"paper", jsi.Options{}},
		{"tuples", jsi.Options{PreserveTupleArrays: true}},
		{"tagged", jsi.Options{TaggedUnions: true}},
		{"enrich", jsi.Options{Enrich: []string{"all"}}},
	}
	render := func(t *testing.T, s *jsi.Schema) string {
		t.Helper()
		js, err := s.JSONSchema()
		if err != nil {
			t.Fatal(err)
		}
		codec, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		return s.String() + "\n" + string(js) + "\n" + string(codec)
	}
	same := func(t *testing.T, tree, dag *jsi.Repository, probes [][]byte) {
		t.Helper()
		if a, b := render(t, tree.Schema()), render(t, dag.Schema()); a != b {
			t.Fatalf("global schema renders\n%s\nfrom the DAG, want\n%s", b, a)
		}
		for _, name := range tree.Partitions() {
			a, _ := tree.PartitionSchema(name)
			b, _ := dag.PartitionSchema(name)
			if ra, rb := render(t, a), render(t, b); ra != rb {
				t.Fatalf("partition %s renders\n%s\nfrom the DAG, want\n%s", name, rb, ra)
			}
		}
		for _, probe := range probes {
			a, errA := tree.Schema().Contains(probe)
			b, errB := dag.Schema().Contains(probe)
			if a != b || (errA == nil) != (errB == nil) {
				t.Fatalf("Contains(%s) = %t, %v from the DAG, want %t, %v", probe, b, errB, a, errA)
			}
		}
	}
	var probes [][]byte
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, bytes.Split(bytes.TrimSpace(dataset.NDJSON(g, 10, 77)), []byte("\n"))...)
	}
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(dataset.NDJSON(g, 80, 31), []byte("\n"))
		for _, p := range policies {
			t.Run(name+"/"+p.name, func(t *testing.T) {
				infer := func(batch []byte) (*jsi.Schema, int64) {
					s, stats, err := jsi.Infer(context.Background(), jsi.FromBytes(batch), p.opts)
					if err != nil {
						t.Fatal(err)
					}
					return s, stats.Records
				}
				repo := jsi.NewRepository()
				for part := 0; part < 3; part++ {
					s, n := infer(bytes.Join(lines[part*20:part*20+20], nil))
					repo.Append(fmt.Sprintf("part-%d", part), s, n)
				}
				// A copy of part-0, whose schema the table holds once.
				s, n := infer(bytes.Join(lines[:20], nil))
				repo.Append("twin", s, n)
				v0, v1 := saveBoth(t, repo)
				tree, err := jsi.LoadRepository(bytes.NewReader(v0))
				if err != nil {
					t.Fatal(err)
				}
				dag, err := jsi.LoadRepository(bytes.NewReader(v1))
				if err != nil {
					t.Fatal(err)
				}
				a, _, _ := jsi.StoredPartition(dag, "part-0")
				b, _, _ := jsi.StoredPartition(dag, "twin")
				if a != b {
					t.Errorf("equal partition schemas loaded as two nodes")
				}
				same(t, tree, dag, probes)
				s, n = infer(bytes.Join(lines[60:], nil))
				tree.Append("part-1", s, n)
				dag.Append("part-1", s, n)
				same(t, tree, dag, probes)
			})
		}
	}
}
