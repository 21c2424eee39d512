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
	// order; nil means DefaultTagKeys. Read only under Tagged.
	TagKeys []string
	// MaxVariants caps the number of distinct tags a union may hold
	// before collapsing; zero means DefaultMaxVariants. Read only under
	// Tagged.
	MaxVariants int
	// MaxTagLen caps the byte length of a string value considered a tag
	// (longer strings are payloads, not discriminators); zero means
	// DefaultMaxTagLen. Read only under Tagged.
	MaxTagLen int
}

// MaxTupleLen bounds how long a tuple the Tuples policy preserves may
// be: long arrays are collections, short ones may be fixed shapes
// (pairs, triples, index spans).
const MaxTupleLen = 4

// DefaultTagKeys are the discriminator field names the tagged policy
// considers when TagKeys is nil, in priority order. They cover the
// discriminators of the paper's datasets (GitHub events' "type") and
// the webhook/event-log conventions.
var DefaultTagKeys = []string{"type", "event", "kind"}

// DefaultMaxVariants caps the number of distinct tags per union when
// MaxVariants is zero. Genuine discriminators enumerate a handful of
// shapes; a field with dozens of observed values is an identifier, and
// the union collapses back to the paper's record.
const DefaultMaxVariants = 16

// DefaultMaxTagLen caps the byte length of a tag value when MaxTagLen
// is zero.
const DefaultMaxTagLen = 40

// Fuse merges two types under this policy; with the zero Options it is
// exactly the package-level Fuse.
func (o Options) Fuse(t1, t2 types.Type) types.Type { return policy{o: o}.fuse(t1, t2) }

// Simplify rewrites array types into the policy's canonical form:
// tuples longer than the cutoff (all tuples, for the zero Options)
// become repeated types; preserved tuples keep their positions with
// each element simplified recursively.
func (o Options) Simplify(t types.Type) types.Type { return policy{o: o}.simplify(t) }

// Array returns the array type of elements already simplified under
// this policy, the one array rule of Simplify and the map stage's walk:
// a kept tuple stays positional, any other array is [collapse*], and []
// is one shared [ε*]. elems is not retained.
func (o Options) Array(elems []types.Type) types.Type { return policy{o: o}.array(elems) }

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
	return policy{o: o}.finalize(t)
}

// policy pairs the options with an optional memo. A non-nil memo
// routes fuse and simplify through its caches (see memo.go); the zero
// policy is the paper's direct algorithm.
type policy struct {
	o    Options
	memo *Memo
}
