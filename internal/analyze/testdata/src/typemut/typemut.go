// Package fixture holds the intraprocedural cases of the internmut
// analyzer: writes through an accessor slice in the function that
// obtained it. TestFixtures runs them as its typemut subtest.
package fixture

import "repro/internal/types"

// MakeOptional writes through the accessor's shared slice, corrupting
// every schema that shares this record subtree.
func MakeOptional(r *types.Record) {
	r.Fields()[0].Optional = true // want "write into r.Fields"
}

// SwapAlt mutates a union through a variable bound to the accessor.
func SwapAlt(u *types.Union) {
	alts := u.Alts()
	alts[0] = types.Null // want "write into alts"
}

// GrowInPlace may write into the record's backing array when capacity
// allows.
func GrowInPlace(r *types.Record, f types.Field) []types.Field {
	return append(r.Fields(), f) // want "append with destination r.Fields"
}

// OverwriteElems copies into the tuple's backing array.
func OverwriteElems(t *types.Tuple, elems []types.Type) {
	es := t.Elems()
	copy(es, elems) // want "copy with destination es"
}

// Rebuild is the fixed form: copy the slice, mutate the copy, and run
// it back through a canonicalizing constructor.
func Rebuild(r *types.Record) *types.Record {
	fs := make([]types.Field, len(r.Fields()))
	copy(fs, r.Fields())
	for i := range fs {
		fs[i].Optional = true
	}
	return types.MustRecord(fs...)
}

// Scratch mutates a locally built slice: allowed.
func Scratch(ts ...types.Type) []types.Type {
	out := make([]types.Type, len(ts))
	copy(out, ts)
	out[0] = types.Str
	return out
}

// DropRetained reuses the accessor slice as scratch space after the
// record itself has been discarded.
func DropRetained(r *types.Record) []types.Field {
	fs := r.Fields()
	//lint:ignore internmut r is a throwaway parse artifact owned by this call
	fs[0].Optional = false
	return fs
}

// KeptThenWritten edits fields after NewRecordSorted made them the
// record's own: the record changes under its holders.
func KeptThenWritten(fields []types.Field) *types.Record {
	fs := make([]types.Field, len(fields))
	copy(fs, fields)
	fs[0].Optional = true // before the hand-over: allowed
	r, err := types.NewRecordSorted(fs)
	if err != nil {
		return nil
	}
	fs[0].Optional = false // want "write into fs (kept by the record types.NewRecordSorted built from it)"
	return r
}

// KeptThenGrown appends to and copies into a slice a record kept.
func KeptThenGrown(fs []types.Field, f types.Field) *types.Record {
	r := types.MustRecordSorted(fs[:1])
	fs = append(fs, f) // want "append with destination fs (kept by the record"
	copy(fs[1:], fs)   // want "copy with destination fs (kept by the record"
	return r
}

// HandOver is the fixed form: the slice is finished before the
// constructor keeps it, and not touched afterwards.
func HandOver(fields []types.Field) *types.Record {
	fs := append([]types.Field(nil), fields...)
	fs[0].Optional = true
	return types.MustRecordSorted(fs)
}
