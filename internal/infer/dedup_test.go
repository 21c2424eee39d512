package infer_test

import (
	"strings"
	"testing"

	"repro/internal/infer"
	"repro/internal/intern"
	"repro/internal/types"
)

// TestDedupAllMatchesInferAll: the deduplicating map must type every
// record exactly like the plain decoder — same rendered types, counts
// summing to the record count, one multiset entry per distinct type,
// each entry its table's representative.
func TestDedupAllMatchesInferAll(t *testing.T) {
	data := []byte(strings.TrimSpace(`
{"a": 1, "b": "x"}
{"b": "y", "a": 2}
{"a": 1, "b": "x", "c": [1, 2]}
{"a": null}
{"a": 1, "b": "z"}
[]
[1, [true, {"k": "v"}]]
{}
{}
`) + "\n")
	plain, err := infer.InferAll(data)
	if err != nil {
		t.Fatal(err)
	}
	tab := intern.NewTable()
	ms, err := infer.DedupAllWith(data, tab, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Total() != int64(len(plain)) {
		t.Fatalf("Total = %d, want %d records", ms.Total(), len(plain))
	}

	// Count the plain types by rendering — the oracle for distinctness.
	wantCounts := map[string]int64{}
	for _, p := range plain {
		wantCounts[p.String()]++
	}
	if ms.Len() != len(wantCounts) {
		t.Fatalf("distinct = %d, want %d", ms.Len(), len(wantCounts))
	}
	for _, e := range ms.Elems() {
		s := e.Type.String()
		if wantCounts[s] != e.Count {
			t.Errorf("count for %s = %d, want %d", s, e.Count, wantCounts[s])
		}
		if r, ok := tab.Ref(e.Type); !ok || r.Type != e.Type {
			t.Errorf("entry %s is not its table's representative", s)
		}
		if e.Size != e.Type.Size() {
			t.Errorf("cached size for %s = %d, want %d", s, e.Size, e.Type.Size())
		}
	}
}

// TestDedupErrorsMatchPlain: syntax errors — including the duplicate-key
// check — must be byte-identical between the plain and deduplicating
// maps.
func TestDedupErrorsMatchPlain(t *testing.T) {
	cases := []string{
		`{"a": 1, "a": 2}`,
		`{"k": {"x": 1, "y": 2, "x": 3}}`,
		`{"a": 1,, "b": 2}`,
		`[1, 2,, 3]`,
		`{"a"}`,
	}
	for _, src := range cases {
		_, plainErr := infer.InferAll([]byte(src))
		_, dedupErr := infer.DedupAllWith([]byte(src), intern.NewTable(), nil, nil)
		if plainErr == nil || dedupErr == nil {
			t.Fatalf("%q: expected errors, got %v / %v", src, plainErr, dedupErr)
		}
		if plainErr.Error() != dedupErr.Error() {
			t.Errorf("%q:\n  plain: %v\n  dedup: %v", src, plainErr, dedupErr)
		}
	}
}

// TestScratchReuseIsolation: the depth-indexed scratch must not let one
// value's fields leak into a sibling or parent — deep asymmetric nesting
// is the stress case.
func TestScratchReuseIsolation(t *testing.T) {
	src := `{"a": {"x": 1, "y": [2, {"deep": true}]}, "b": 3}` + "\n" + `{"only": [[], [1]]}`
	plain, err := infer.InferAll([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	tab := intern.NewTable()
	ms, err := infer.DedupAllWith([]byte(src), tab, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 2 || ms.Len() != 2 {
		t.Fatalf("want 2 records / 2 distinct, got %d / %d", len(plain), ms.Len())
	}
	for i, e := range ms.Elems() {
		if !types.Equal(e.Type, plain[i]) {
			t.Errorf("record %d: dedup %s != plain %s", i, e.Type, plain[i])
		}
	}
}
