// Package abstraction implements key abstraction, the remedy for the
// pathology the paper diagnoses on Wikidata (Section 6.2): when a
// dataset encodes identifiers — user ids, property ids, language codes —
// as record KEYS, key-directed fusion cannot collapse anything and the
// fused type grows with the key space (Table 4). The fix, which the
// paper's authors themselves pursued in their follow-up work on
// parametric schema inference, is to detect such "dictionary-like"
// records and abstract them into a map type {*: T}: arbitrary keys, all
// values in the fusion T of the observed value types.
//
// Abstraction is a sound widening: t is always a subtype of
// Abstract(t, opts) (every abstracted record still admits the records
// the concrete type admitted), which the property tests verify via both
// the subtype checker and value membership. And because fusion treats
// {*: T} as a record-kind type that absorbs records field-by-field, an
// abstracted schema keeps working incrementally: fusing in new records
// can only refine T, never re-grow the key explosion.
package abstraction

import (
	"repro/internal/fusion"
	"repro/internal/types"
)

// Options tune which records get abstracted.
type Options struct {
	// MinKeys is the minimum number of fields before a record type is
	// considered dictionary-like; zero means DefaultMinKeys.
	MinKeys int
}

// DefaultMinKeys is the MinKeys used when Options leaves it zero.
const DefaultMinKeys = 16

// maxElemGrowth bounds how much bigger the fused element type may be
// than the average field type for abstraction to proceed: similar
// field types fuse without growing, while genuinely heterogeneous
// records (which deserve their field names) do not.
const maxElemGrowth = 3.0

func (o Options) minKeys() int {
	if o.MinKeys <= 0 {
		return DefaultMinKeys
	}
	return o.MinKeys
}

// Abstract rewrites dictionary-like record types inside t into map
// types, bottom-up: a record with at least MinKeys fields whose field
// types fuse without growing past maxElemGrowth times their average
// size becomes {*: Fuse(field types)}.
func Abstract(t types.Type, opts Options) types.Type {
	switch tt := t.(type) {
	case types.Basic, types.EmptyType:
		return t
	case *types.Record:
		fields := tt.Fields()
		out := make([]types.Field, len(fields))
		elems := make([]types.Type, len(fields))
		var sumSize int
		for i, f := range fields {
			elems[i] = Abstract(f.Type, opts)
			out[i] = types.Field{Key: f.Key, Type: elems[i], Optional: f.Optional}
			sumSize += elems[i].Size()
		}
		rec := types.MustRecord(out...)
		if len(out) < opts.minKeys() {
			return rec
		}
		// Balanced: a left fold would rebuild the growing element type
		// per field, quadratic in the width of a record of records.
		elem := fusion.FuseAllTree(elems)
		// The fusion of many field types can itself assemble a nested
		// dictionary (e.g. Wikidata's qualifiers: one property key per
		// statement, hundreds across the collection), so abstract the
		// candidate element before judging and storing it.
		elem = Abstract(elem, opts)
		avg := float64(sumSize) / float64(len(out))
		if float64(elem.Size()) > avg*maxElemGrowth {
			return rec // heterogeneous fields: keep the names
		}
		return types.MustMap(elem)
	case *types.Map:
		return types.MustMap(Abstract(tt.Elem(), opts))
	case *types.Tuple:
		elems := make([]types.Type, tt.Len())
		for i, e := range tt.Elems() {
			elems[i] = Abstract(e, opts)
		}
		return types.MustTuple(elems...)
	case *types.Repeated:
		return types.MustRepeated(Abstract(tt.Elem(), opts))
	case *types.Union:
		alts := tt.Alts()
		out := make([]types.Type, len(alts))
		for i, a := range alts {
			out[i] = Abstract(a, opts)
		}
		// Abstraction never changes a type's kind (records become maps,
		// both record-kind), so normality is preserved and the union
		// rebuilds directly.
		return types.MustUnion(out...)
	default:
		return t
	}
}
