package types

import (
	"fmt"

	"repro/internal/jsontext"
)

// A snapshot stores a set of types (a Repository's partition schemas)
// in the codec's format, each repeated shape once. Its table of shared
// shapes is a JSON array of the composite shapes that occur two or more
// times across the types, numbered together (NumberShapes), children
// first; every use of a tabled shape, in a later entry or in one of the
// types, is {"ref": i}, i its index in the table. A ref may name only
// an earlier entry, so no document describes a cycle. The reader
// decodes each entry once and hands its node to every ref, so the
// types it returns share those nodes: a DAG, where the codec's reader
// builds a tree.
//
// n entries can spell a tree of 2ⁿ nodes, and Size, String, the
// exports and Fuse all cost the expanded tree. So the reader computes
// each entry's expanded size and nesting height from the entries it
// references, in O(entries), and rejects the document as soon as an
// entry or the types together expand past MaxSnapshotSize nodes, or a
// type would nest deeper than jsontext.MaxNesting, the bound a document
// without refs meets. The writer returns an error rather than write a
// snapshot its reader would reject.

// MaxSnapshotSize is the most nodes, as Size counts them, that the
// types of one snapshot may expand to together. It lies below what a
// 64 MiB snapshot without refs can spell out (about 5.6 million
// {"k":"num"}, 12 bytes with a comma), so refs let no snapshot cost
// more to use than the largest body schemad accepts by default already
// could.
const MaxSnapshotSize = 1 << 22

// errSnapshotSize is the error of schemas that expand past
// MaxSnapshotSize nodes.
var errSnapshotSize = fmt.Errorf("types: schemas expand to more than %d nodes", MaxSnapshotSize)

// ownSize is t's own term of Size, its children's sizes left out.
func ownSize(t Type) int64 {
	switch tt := t.(type) {
	case *Record:
		return 1 + int64(len(tt.fields))
	case *Map:
		return 2
	case *Union:
		return int64(len(tt.alts)) - 1
	case *Variants:
		n := 1 + int64(len(tt.cases))
		if tt.other != nil {
			n++
		}
		return n
	}
	return 1
}

// A SnapshotWriter writes a set of types in a snapshot's form: the
// table with AppendTable, then each type with AppendRoot.
type SnapshotWriter struct {
	e     encoder
	roots []Type
	at    []int // the position of each root in the numbering
	total int64 // the expanded size of the roots written
}

// NewSnapshotWriter numbers the shapes of roots together.
func NewSnapshotWriter(roots []Type) *SnapshotWriter {
	shapes := NumberShapes(roots...)
	w := &SnapshotWriter{
		e:     encoder{shapes: shapes, refs: make([]int32, shapes.Len())},
		roots: roots,
		at:    make([]int, len(roots)),
	}
	pos := 0
	for i, t := range roots {
		w.at[i] = pos
		pos = shapes.Skip(t, pos)
	}
	return w
}

// AppendTable appends the table of shared shapes to dst. depth is the
// number of arrays and objects enclosing the table.
func (w *SnapshotWriter) AppendTable(dst []byte, depth int) []byte {
	e := &w.e
	e.buf = append(dst, '[')
	for id := range e.shapes.shapes {
		sh := &e.shapes.shapes[id]
		if sh.count < 2 {
			continue
		}
		if len(e.costs) > 0 {
			e.byte(',')
		}
		e.size, e.top = 0, depth+1
		e.render(sh.t, int(sh.pos), depth+1)
		e.costs = append(e.costs, cost{size: e.size, height: e.top - (depth + 1)})
		e.refs[id] = int32(len(e.costs))
	}
	return append(e.buf, ']')
}

// AppendRoot appends the document of roots[i], whose tabled shapes are
// refs into the table AppendTable wrote, to dst. depth is the number of
// arrays and objects enclosing it. It returns an error when the roots
// written so far expand past MaxSnapshotSize nodes or roots[i] nests
// deeper than jsontext.MaxNesting. Every entry lies in some root, so
// the entries' bounds follow.
func (w *SnapshotWriter) AppendRoot(dst []byte, i, depth int) ([]byte, error) {
	e := &w.e
	e.buf, e.size, e.top = dst, 0, depth
	e.typ(w.roots[i], w.at[i], depth)
	if w.total += e.size; w.total > MaxSnapshotSize {
		return dst, errSnapshotSize
	}
	if e.top > jsontext.MaxNesting {
		return dst, fmt.Errorf("types: schema nests deeper than %d", jsontext.MaxNesting)
	}
	return e.buf, nil
}

// A SnapshotReader decodes the types of a snapshot: the entries of its
// table with ReadEntry, each once, then the types with ReadJSON.
type SnapshotReader struct {
	d       decoder
	entries []entry
	total   int64 // the expanded size of the types read
}

// An entry is a decoded table entry: its node and what it costs.
type entry struct {
	t Type
	cost
}

// ReadEntry decodes the next entry of the table from the next tokens
// of l. depth is the number of arrays and objects enclosing it.
func (r *SnapshotReader) ReadEntry(l *jsontext.Lexer, depth int) error {
	r.d.l, r.d.snap = l, r
	t, err := r.d.read(depth, MaxSnapshotSize)
	if err != nil {
		return fmt.Errorf("shape %d: %w", len(r.entries), err)
	}
	r.entries = append(r.entries, entry{t: t, cost: cost{size: r.d.size, height: r.d.top - depth}})
	return nil
}

// ReadJSON decodes one of the snapshot's types from the next tokens of
// l, as the package-level ReadJSON does, its refs taking the entries'
// nodes.
func (r *SnapshotReader) ReadJSON(l *jsontext.Lexer, depth int) (Type, error) {
	r.d.l, r.d.snap = l, r
	t, err := r.d.read(depth, MaxSnapshotSize-r.total)
	if err != nil {
		return nil, err
	}
	r.total += r.d.size
	return t, nil
}
