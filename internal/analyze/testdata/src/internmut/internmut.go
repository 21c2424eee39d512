// Package fixture holds known-bad and known-good snippets for the
// internmut analyzer's golden tests: accessor slices of interned types
// escaping into callees that mutate them.
package fixture

import (
	"sort"

	"repro/internal/types"
)

// makeOptional writes through its slice parameter — harmless on a
// fresh slice, corrupting on an accessor's shared backing array.
func makeOptional(fs []types.Field) {
	if len(fs) > 0 {
		fs[0].Optional = true
	}
}

// Direct feeds the shared slice straight into the mutator.
func Direct(r *types.Record) {
	makeOptional(r.Fields()) // want "escapes into parameter fs of makeOptional"
}

// outer looks innocent; the write is two calls down (outer -> inner).
func outer(fs []types.Field) { inner(fs) }

func inner(fs []types.Field) {
	if len(fs) > 1 {
		fs[1].Optional = true
	}
}

// Deep is the transitive case: the summary of outer carries inner's
// parameter write.
func Deep(r *types.Record) {
	outer(r.Fields()) // want "escapes into parameter fs of outer"
}

// SortShared hands the shared backing array to an in-place
// standard-library sort, which the local write rules cannot see.
func SortShared(r *types.Record) {
	fs := r.Fields()
	sort.Slice(fs, func(i, j int) bool { return fs[i].Key < fs[j].Key }) // want "escapes into the slice argument of Slice"
}

// scramble overwrites an alternative through its parameter.
func scramble(ts []types.Type) {
	if len(ts) > 0 {
		ts[0] = types.Null
	}
}

// ViaVar reaches the mutator through a variable bound to the accessor.
func ViaVar(u *types.Union) {
	alts := u.Alts()
	scramble(alts) // want "escapes into parameter ts of scramble"
}

// Render only reads: length and iteration never mutate, so read-only
// consumption is excused.
func Render(r *types.Record) int { return fieldCount(r.Fields()) }

func fieldCount(fs []types.Field) int {
	n := 0
	for range fs {
		n++
	}
	return n
}

// Rebuild passes the accessor slice into a constructor of the types
// package itself — constructors copy their inputs and own the
// invariant, so the escape is excused.
func Rebuild(r *types.Record) *types.Record {
	return types.MustRecord(r.Fields()...)
}

// Scratch demonstrates the suppression escape hatch: a documented,
// deliberate in-place edit (e.g. on a record known to be freshly built
// and unshared).
func Scratch(r *types.Record) {
	//lint:ignore internmut fixture demonstrates suppression on a provably unshared record
	makeOptional(r.Fields())
}
