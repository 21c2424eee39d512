package fusion

import "repro/internal/types"

// A Strategy is a record-fusion policy: it decides how much structure
// fusion preserves beyond the paper's exact algorithm. Strategies are
// small immutable configuration values — every one of them keeps Fuse
// commutative and associative (the algebra the parallel reduce phase
// depends on), they only move the precision/succinctness trade-off.
//
// The three built-in strategies:
//
//   - Paper{} is the algorithm of Figures 5-6, exactly.
//   - Tuples{} adds the positional-array extension sketched in the
//     paper's conclusion: equal-length tuples fuse element-wise.
//   - Tagged{} adds discriminated record unions (docs/UNIONS.md):
//     records carrying a low-cardinality discriminator field keep one
//     precise record type per discriminator value instead of being
//     fused into a single all-optional record.
//
// New policies implement this interface; params() keeps the set closed
// so the fusion kernel can switch on a plain struct instead of calling
// back into user code on every fuse (see docs/UNIONS.md for the
// add-a-policy recipe).
type Strategy interface {
	// Name identifies the strategy in logs, experiment reports and CLI
	// flags.
	Name() string
	// params lowers the strategy to the kernel's internal knobs. The
	// unexported method closes the interface: policies live here, next
	// to the algebra their proofs depend on.
	params() params
}

// Paper is the paper's exact fusion algorithm (the zero Options).
type Paper struct{}

// Name implements Strategy.
func (Paper) Name() string { return "paper" }

func (Paper) params() params { return params{} }

// Tuples preserves equal-length positional array types: arrays of the
// same length fuse element-wise instead of being simplified away, so
// fixed-shape arrays like [lon, lat] coordinate pairs keep their
// per-position types. Arrays of different lengths (or fusions with an
// already-simplified [T*]) still fall back to the paper's
// simplification, so the operator remains total.
type Tuples struct {
	// MaxLen bounds how long a preserved tuple may be; longer tuples
	// are simplified even when lengths match (they are almost certainly
	// collections, not fixed shapes). Zero means DefaultMaxTupleLen.
	MaxLen int
}

// Name implements Strategy.
func (Tuples) Name() string { return "tuples" }

func (s Tuples) params() params {
	n := s.MaxLen
	if n <= 0 {
		n = DefaultMaxTupleLen
	}
	return params{maxTuple: n}
}

// Tagged infers tagged unions: during phase one, records carrying a
// candidate discriminator field (a string-valued field named in Keys,
// or the single field of a one-field wrapper record) are promoted to
// single-case variants types, and fusion merges variants case-wise by
// tag instead of blending all fields into one record. When the
// hypothesis fails — more distinct tags than MaxVariants, or records
// that disagree on the discriminator — the union collapses to exactly
// what Paper would have produced, so the policy degrades gracefully.
type Tagged struct {
	// Inner supplies the non-record behaviour (tuple handling); nil
	// means Paper{}.
	Inner Strategy
	// Keys lists candidate discriminator field names in priority
	// order; nil means DefaultTagKeys.
	Keys []string
	// MaxVariants caps the number of distinct tags a union may hold
	// before collapsing; zero means DefaultMaxVariants.
	MaxVariants int
	// MaxTagLen caps the byte length of a string value considered a
	// tag (longer strings are payloads, not discriminators); zero
	// means DefaultMaxTagLen.
	MaxTagLen int
}

// Name implements Strategy.
func (s Tagged) Name() string {
	if s.Inner == nil {
		return "tagged"
	}
	return "tagged+" + s.Inner.Name()
}

func (s Tagged) params() params {
	var par params
	if s.Inner != nil {
		par = s.Inner.params()
	}
	par.tagged = true
	par.tagKeys = s.Keys
	if par.tagKeys == nil {
		par.tagKeys = DefaultTagKeys
	}
	par.maxVariants = s.MaxVariants
	if par.maxVariants <= 0 {
		par.maxVariants = DefaultMaxVariants
	}
	par.maxTagLen = s.MaxTagLen
	if par.maxTagLen <= 0 {
		par.maxTagLen = DefaultMaxTagLen
	}
	return par
}

// DefaultMaxTupleLen is the tuple-length cutoff used when
// Tuples.MaxLen is zero: long arrays are collections, short ones may be
// fixed shapes (pairs, triples, index spans).
const DefaultMaxTupleLen = 4

// DefaultTagKeys are the discriminator field names the tagged strategy
// considers when Tagged.Keys is nil, in priority order. They cover the
// discriminators of the paper's datasets (GitHub events' "type") and
// the webhook/event-log conventions.
var DefaultTagKeys = []string{"type", "event", "kind"}

// DefaultMaxVariants caps the number of distinct tags per union when
// Tagged.MaxVariants is zero. Genuine discriminators enumerate a
// handful of shapes; a field with dozens of observed values is an
// identifier, and the union collapses back to the paper's record.
const DefaultMaxVariants = 16

// DefaultMaxTagLen caps the byte length of a tag value when
// Tagged.MaxTagLen is zero.
const DefaultMaxTagLen = 40

// Options select a fusion policy. The zero value is the paper's exact
// algorithm (Figures 5-6).
//
// Every strategy keeps the algebra intact: fusion under any Options
// value is still commutative and associative. The property tests in
// options_test.go and tagged_test.go check this for each policy the
// same way the core tests check Theorems 5.4 and 5.5.
type Options struct {
	// Strategy selects the record-fusion strategy; nil means Paper{}.
	Strategy Strategy
}

// ResolvedStrategy returns the strategy the options denote: Strategy
// when set, otherwise Paper{}.
func (o Options) ResolvedStrategy() Strategy {
	if o.Strategy != nil {
		return o.Strategy
	}
	return Paper{}
}

func (o Options) params() params { return o.ResolvedStrategy().params() }

// Fuse merges two types under this policy; with the zero Options it is
// exactly the package-level Fuse.
func (o Options) Fuse(t1, t2 types.Type) types.Type {
	return policy{par: o.params()}.fuse(t1, t2)
}

// FuseAll folds Fuse over ts from the left (ε for an empty slice).
func (o Options) FuseAll(ts []types.Type) types.Type {
	acc := types.Type(types.Empty)
	p := policy{par: o.params()}
	for _, t := range ts {
		acc = p.fuse(acc, t)
	}
	return acc
}

// Simplify rewrites array types into the policy's canonical form:
// tuples longer than the cutoff (all tuples, for the zero Options)
// become repeated types; preserved tuples keep their positions with
// each element simplified recursively.
func (o Options) Simplify(t types.Type) types.Type {
	return policy{par: o.params()}.simplify(t)
}

// KeepTuple reports whether Simplify keeps a tuple of n elements
// positional under this policy, rather than collapsing it into [T*].
func (o Options) KeepTuple(n int) bool { return policy{par: o.params()}.keepTuple(n) }

// Finalize lowers the intermediate variants states a tagged fusion
// leaves behind — collapsed unions become their plain record, weak
// wrapper hypotheses (fewer than two observed tags) fold back into the
// record fusion of their components — and returns the type unchanged
// under non-tagged strategies. The pipeline applies it once, after the
// final reduce, so the merge algebra never sees the lowered forms.
func (o Options) Finalize(t types.Type) types.Type {
	if !hasVariants(t) {
		return t
	}
	return policy{par: o.params()}.finalize(t)
}

// params is the internal, closed representation of a Strategy: the
// knobs the fusion kernel actually switches on. maxTuple == 0 means
// the paper's always-simplify behaviour; tagged enables the variants
// merge rules.
type params struct {
	maxTuple    int
	tagged      bool
	tagKeys     []string
	maxVariants int
	maxTagLen   int
}

// policy pairs the kernel knobs with an optional memo. A non-nil memo
// routes fuse and simplify through its caches (see memo.go); the zero
// policy is the paper's direct algorithm.
type policy struct {
	par  params
	memo *Memo
}

// keepTuple reports whether a tuple of length n stays positional.
func (p policy) keepTuple(n int) bool { return n > 0 && n <= p.par.maxTuple }
