package fusion

import (
	"fmt"

	"repro/internal/types"
)

// This file holds the record-kind half of the tagged policy
// (Options.Tagged): the variants merge rules, the collapse-to-paper
// flattening, the finalization pass that lowers intermediate states,
// and the Promoter that phase one uses to wrap discriminated records.
// The algebra is documented in docs/UNIONS.md; the short version is
// that every rule computes a function of the multiset of fused
// constituents, which is what makes the operator commutative and
// associative regardless of the reduce tree's shape.

// variantsCap returns the effective tag cap: the tagged policy's
// MaxVariants, or the default when it is zero or when a variants type
// is fused under a policy that never produces one (parsed or persisted
// types fed back through Fuse).
func (p policy) variantsCap() int {
	if p.o.Tagged && p.o.MaxVariants > 0 {
		return p.o.MaxVariants
	}
	return DefaultMaxVariants
}

// fuseRecordsR is fuseRecords with the result typed as the record it
// always is.
func (p policy) fuseRecordsR(r1, r2 *types.Record) *types.Record {
	return p.fuseRecords(r1, r2).(*types.Record)
}

// fuseVariantsKind fuses two record-kind types of which at least one is
// a variants type and neither is a map (maps absorb the whole kind in
// fuseRecordKind).
func (p policy) fuseVariantsKind(t1, t2 types.Type) types.Type {
	v1, ok1 := t1.(*types.Variants)
	v2, ok2 := t2.(*types.Variants)
	switch {
	case ok1 && ok2:
		return p.fuseVariants(v1, v2)
	case ok1:
		return p.fuseVariantsRecord(v1, t2.(*types.Record))
	case ok2:
		return p.fuseVariantsRecord(v2, t1.(*types.Record))
	default:
		panic(fmt.Sprintf("fusion: fuseVariantsKind on %T and %T", t1, t2))
	}
}

// fuseVariantsRecord absorbs a plain record into the union's Other
// branch. Other's catch-all membership semantics makes this sound
// unconditionally, which keeps the rule order-independent: Other is
// always the plain record fusion of every undiscriminated constituent.
func (p policy) fuseVariantsRecord(v *types.Variants, r *types.Record) types.Type {
	other := r
	if v.Other() != nil {
		other = p.fuseRecordsR(v.Other(), r)
	}
	if v.Collapsed() {
		return types.MustCollapsedVariants(other)
	}
	return types.MustVariants(v.Key(), v.Wrapper(), v.Cases(), other)
}

// fuseVariants merges two tagged unions. Matching modes and keys merge
// case-wise by tag; a failed hypothesis — mismatched modes, more tags
// than the cap, or either side already collapsed — yields the absorbing
// collapsed state around the plain record fusion of everything, which
// is exactly what the paper's record fusion would have produced for the
// same multiset of records.
func (p policy) fuseVariants(a, b *types.Variants) types.Type {
	collapse := func() types.Type {
		return types.MustCollapsedVariants(p.fuseRecordsR(p.flattenVariants(a), p.flattenVariants(b)))
	}
	if a.Collapsed() || b.Collapsed() {
		return collapse()
	}
	if a.Wrapper() != b.Wrapper() || a.Key() != b.Key() {
		return collapse()
	}
	ca, cb := a.Cases(), b.Cases()
	out := make([]types.Variant, 0, len(ca)+len(cb))
	i, j := 0, 0
	for i < len(ca) && j < len(cb) {
		switch {
		case ca[i].Tag == cb[j].Tag:
			out = append(out, types.Variant{Tag: ca[i].Tag, Type: p.fuseRecordsR(ca[i].Type, cb[j].Type)})
			i++
			j++
		case ca[i].Tag < cb[j].Tag:
			out = append(out, ca[i])
			i++
		default:
			out = append(out, cb[j])
			j++
		}
	}
	out = append(out, ca[i:]...)
	out = append(out, cb[j:]...)
	if len(out) > p.variantsCap() {
		return collapse()
	}
	other := a.Other()
	switch {
	case other == nil:
		other = b.Other()
	case b.Other() != nil:
		other = p.fuseRecordsR(other, b.Other())
	}
	return types.MustVariants(a.Key(), a.Wrapper(), out, other)
}

// flattenVariants computes the plain record the paper's record fusion
// would have inferred for the union's constituents: the record fusion
// of every case type and Other. fuseRecords is commutative and
// associative, so the result is a function of the constituent multiset
// and collapsing at different points of a reduce tree converges.
func (p policy) flattenVariants(v *types.Variants) *types.Record {
	acc := collapse(p.fuse, v.Cases(), func(c types.Variant) types.Type { return c.Type })
	if v.Other() != nil {
		acc = p.fuse(acc, v.Other())
	}
	return acc.(*types.Record)
}

// hasVariants reports whether any node of t is a variants type — the
// Finalize fast path: types never touched by tagged inference are
// returned as-is, node identity included, so the untagged policies'
// folds stay byte- and pointer-identical to their pre-variants output.
func hasVariants(t types.Type) bool {
	found := false
	types.Walk(t, func(n types.Type) bool {
		if _, ok := n.(*types.Variants); ok {
			found = true
		}
		return !found
	})
	return found
}

// finalize lowers the intermediate variants states after the final
// reduce: collapsed unions become their plain record, wrapper unions
// with fewer than two observed tags fold back into the record fusion
// of their components (a single one-field record is overwhelmingly a
// nested object, not a discriminated stream — Twitter-style wrappers
// prove themselves by exhibiting several tags), and keyed unions keep
// even a single case (the constant discriminator is informative). The
// pass recurses structurally, so nested unions lower too.
//
// Like simplify, finalize returns a node none of whose children changes
// as is. That includes a union with alternatives of one kind: finalize
// rebuilds unions without re-fusing them, so the rebuilt union would
// equal the input anyway.
func (p policy) finalize(t types.Type) types.Type {
	switch tt := t.(type) {
	case types.Basic, types.EmptyType:
		return t
	case *types.Record:
		fs, changed := types.MapChildren(tt.Fields(), func(f types.Field) types.Field {
			f.Type = p.finalize(f.Type)
			return f
		})
		if !changed {
			return t
		}
		return types.MustRecordSorted(fs)
	case *types.Variants:
		if tt.Collapsed() {
			return p.finalize(tt.Other())
		}
		if tt.Wrapper() && tt.Len() < 2 {
			return p.finalize(p.flattenVariants(tt))
		}
		cs, changed := types.MapChildren(tt.Cases(), func(c types.Variant) types.Variant {
			c.Type = p.finalize(c.Type).(*types.Record)
			return c
		})
		other := tt.Other()
		if other != nil {
			if o := p.finalize(other); o != types.Type(other) {
				other, changed = o.(*types.Record), true
			}
		}
		if !changed {
			return t
		}
		return types.MustVariants(tt.Key(), tt.Wrapper(), cs, other)
	case *types.Map:
		if e := p.finalize(tt.Elem()); e != tt.Elem() {
			return types.MustMap(e)
		}
		return t
	case *types.Tuple:
		elems, changed := types.MapChildren(tt.Elems(), p.finalize)
		if !changed {
			return t
		}
		return types.MustTuple(elems...)
	case *types.Repeated:
		if e := p.finalize(tt.Elem()); e != tt.Elem() {
			return types.MustRepeated(e)
		}
		return t
	case *types.Union:
		out, changed := types.MapChildren(tt.Alts(), p.finalize)
		if !changed {
			return t
		}
		// Lowering keeps every alternative in its kind (variants lower
		// to records, both record-kind), so normality is preserved.
		return types.MustUnion(out...)
	default:
		panic(fmt.Sprintf("fusion: unknown type %T", t))
	}
}

// A Promoter is the phase-one half of the tagged policy: the decoder
// consults it while inferring each JSON object and wraps records that
// carry a discriminator into single-case variants types, which the
// fusion rules above then merge tag-wise. Options.Promoter returns nil
// for policies without tagged-union inference, so the decoder's fast
// path is untouched by default.
type Promoter struct {
	keys      []string
	maxTagLen int
}

// Promoter returns the phase-one promoter for the options, or nil
// when they do not infer tagged unions. It resolves the zero TagKeys
// and MaxTagLen to DefaultTagKeys and DefaultMaxTagLen.
func (o Options) Promoter() *Promoter {
	if !o.Tagged {
		return nil
	}
	pr := &Promoter{keys: o.TagKeys, maxTagLen: o.MaxTagLen}
	if pr.keys == nil {
		pr.keys = DefaultTagKeys
	}
	if pr.maxTagLen <= 0 {
		pr.maxTagLen = DefaultMaxTagLen
	}
	return pr
}

// CandidateKeys lists the discriminator field names in priority order.
func (pr *Promoter) CandidateKeys() []string { return pr.keys }

// MaxTagLen is the longest string value considered a tag.
func (pr *Promoter) MaxTagLen() int { return pr.maxTagLen }

// Promote wraps a record whose field key carried the string value tag
// into a single-case keyed variants type.
func (pr *Promoter) Promote(r *types.Record, key, tag string) types.Type {
	return types.MustVariants(key, false, []types.Variant{{Tag: tag, Type: r}}, nil)
}

// PromoteWrapper wraps a single-field record whose field value is an
// object into a single-case wrapper variants type; tag is that field's
// key.
func (pr *Promoter) PromoteWrapper(r *types.Record, tag string) types.Type {
	return types.MustVariants("", true, []types.Variant{{Tag: tag, Type: r}}, nil)
}
