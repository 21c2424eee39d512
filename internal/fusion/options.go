package fusion

import "repro/internal/types"

// Options select a fusion policy: the paper's algorithm (Figures 5-6)
// plus the extensions the paper names, each a switch on the one
// operator. The zero value is the paper's exact algorithm.
//
// Every policy keeps the algebra intact: fusion under any Options value
// is still commutative and associative, the property the parallel
// reduce phase depends on. The property tests in options_test.go and
// tagged_test.go check this for each policy the same way the core tests
// check Theorems 5.4 and 5.5.
type Options struct {
	// Tuples preserves equal-length positional array types: arrays of
	// the same length, at most MaxTupleLen, fuse element-wise instead of
	// being simplified away, so fixed-shape arrays like [lon, lat]
	// coordinate pairs keep their per-position types. Arrays of
	// different lengths (or fusions with an already-simplified [T*])
	// still fall back to the paper's simplification, so the operator
	// remains total.
	Tuples bool
	// Tagged infers tagged unions (docs/UNIONS.md): during phase one,
	// records carrying a candidate discriminator field (a string-valued
	// field named in TagKeys, or the single field of a one-field wrapper
	// record) are promoted to single-case variants types, and fusion
	// merges variants case-wise by tag instead of blending all fields
	// into one record. When the hypothesis fails — more distinct tags
	// than MaxVariants, or records that disagree on the discriminator —
	// the union collapses to exactly what the paper's record fusion
	// would have produced, so the policy degrades gracefully.
	Tagged bool
	// TagKeys lists candidate discriminator field names in priority
	// order; empty means DefaultTagKeys. Read only under Tagged.
	TagKeys []string
}

// MaxTupleLen bounds how long a tuple the Tuples policy preserves may
// be: long arrays are collections, short ones may be fixed shapes
// (pairs, triples, index spans).
const MaxTupleLen = 4

// DefaultTagKeys are the discriminator field names the tagged policy
// considers when TagKeys is empty, in priority order. They cover the
// discriminators of the paper's datasets (GitHub events' "type") and
// the webhook/event-log conventions.
var DefaultTagKeys = []string{"type", "event", "kind"}

// MaxVariants caps the number of distinct tags per union, under every
// policy, so a stored union fuses to the same result as offline
// inference. Genuine discriminators enumerate a handful of shapes; a
// field with dozens of observed values is an identifier, and the union
// collapses back to the paper's record.
const MaxVariants = 16

// keepTuple reports whether the policy keeps an array of n elements a
// positional tuple, rather than collapsing it into [T*].
func (o Options) keepTuple(n int) bool { return o.Tuples && n > 0 && n <= MaxTupleLen }

// Finalize lowers the intermediate variants states a tagged fusion
// leaves behind — collapsed unions become their plain record, weak
// wrapper hypotheses (fewer than two observed tags) fold back into the
// record fusion of their components — and returns the type unchanged
// when it holds no variants. The pipeline applies it once, after the
// final reduce, so the merge algebra never sees the lowered forms.
func (o Options) Finalize(t types.Type) types.Type {
	if !hasVariants(t) {
		return t
	}
	return o.finalize(t)
}
