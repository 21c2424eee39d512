package types

import (
	"testing"

	"repro/internal/jsontext"
)

// snapshotRoundTrip writes roots in a snapshot's form, as
// {"shapes": [...], "roots": [...]}, and reads them back.
func snapshotRoundTrip(t *testing.T, roots []Type) ([]Type, *SnapshotWriter, *SnapshotReader) {
	t.Helper()
	w := NewSnapshotWriter(roots)
	doc := w.AppendTable([]byte(`{"shapes":`), 1)
	doc = append(doc, `,"roots":[`...)
	for i := range roots {
		if i > 0 {
			doc = append(doc, ',')
		}
		var err error
		if doc, err = w.AppendRoot(doc, i, 2); err != nil {
			t.Fatal(err)
		}
	}
	doc = append(doc, "]}"...)

	l := jsontext.AcquireLexerBytes(doc)
	defer l.Release()
	l.RawStrings(true)
	r := new(SnapshotReader)
	var out []Type
	elems := func(read func() error) {
		if tok, err := l.Next(); err != nil || tok.Kind != jsontext.TokBeginArray {
			t.Fatalf("%s: %v", doc, err)
		}
		for i := 0; ; i++ {
			ok, err := l.NextElem(i)
			if err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
			if !ok {
				return
			}
			if err := read(); err != nil {
				t.Fatalf("%s: %v", doc, err)
			}
		}
	}
	if _, err := l.Next(); err != nil {
		t.Fatal(err)
	}
	var seen uint64
	for {
		m, err := l.NextMember([]string{"shapes", "roots"}, &seen)
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if m < 0 {
			return out, w, r
		}
		if m == 0 {
			elems(func() error { return r.ReadEntry(l, 2) })
			continue
		}
		elems(func() error {
			tt, err := r.ReadJSON(l, 2)
			out = append(out, tt)
			return err
		})
	}
}

// TestSnapshotSharesEachShape: the types of every shape test, written
// next to a near-copy and again, read back Equal to what the codec
// reads back of them (the lexer repairs invalid UTF-8 in keys);
// two Equal composite nodes anywhere in them are one node; the reader
// costs every entry as the writer did; and the types' expanded size is
// the sum of their Sizes.
func TestSnapshotSharesEachShape(t *testing.T) {
	for k, tt := range shapeTypes(t) {
		roots := []Type{tt, perturb(tt, k), Num, tt}
		got, w, r := snapshotRoundTrip(t, roots)
		var size int64
		var nodes []Type
		for i, root := range roots {
			doc, err := MarshalJSON(root)
			if err != nil {
				t.Fatal(err)
			}
			want, err := UnmarshalJSON(doc)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(got[i], want) {
				t.Fatalf("root %d of %s read back as %s, the codec reads %s", i, root, got[i], want)
			}
			size += int64(root.Size())
			nodes = append(nodes, preorder(got[i])...)
		}
		if r.total != size {
			t.Fatalf("%s: read %d nodes, Sizes sum to %d", tt, r.total, size)
		}
		if len(r.entries) != len(w.e.costs) {
			t.Fatalf("%s: read %d entries of %d", tt, len(r.entries), len(w.e.costs))
		}
		for i, e := range r.entries {
			if e.cost != w.e.costs[i] {
				t.Fatalf("%s: entry %d read as %+v, written as %+v", tt, i, e.cost, w.e.costs[i])
			}
		}
		for i, a := range nodes {
			for _, b := range nodes[i+1:] {
				if a != b && Equal(a, b) {
					t.Fatalf("%s: two nodes %s read back", tt, a)
				}
			}
		}
	}
}
