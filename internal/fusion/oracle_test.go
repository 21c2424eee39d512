package fusion

import (
	"fmt"

	"repro/internal/types"
)

// oracle is the fusion kernel as it was before copy-on-write: every
// fuse, simplify and finalize step rebuilds every node it returns,
// through the copying and sorting constructors. It is kept, test-only,
// as the reference the optimized kernel must match byte for byte in
// the codec (TestKernelMatchesOracle, FuzzFuseLaws).
type oracle struct{ o Options }

func (p oracle) keepTuple(n int) bool { return p.o.Tuples && n > 0 && n <= MaxTupleLen }

// fuse is Fuse: kind tables on both sides, and a new union every time.
func (p oracle) fuse(t1, t2 types.Type) types.Type {
	g1 := p.groupByKind(t1)
	g2 := p.groupByKind(t2)
	out := make([]types.Type, 0, 6)
	for k := 0; k < 6; k++ {
		a, b := g1[k], g2[k]
		switch {
		case a != nil && b != nil:
			out = append(out, p.lfuse(a, b))
		case a != nil:
			out = append(out, a)
		case b != nil:
			out = append(out, b)
		}
	}
	return types.MustUnion(out...)
}

// groupByKind buckets the non-union addends of t by kind, folding
// same-kind addends with lfuse so each bucket holds at most one type.
func (p oracle) groupByKind(t types.Type) [6]types.Type {
	var g [6]types.Type
	for _, u := range types.Addends(t) {
		k, ok := types.KindOf(u)
		if !ok {
			// Addends never returns unions or ε for canonical types.
			panic(fmt.Sprintf("fusion: non-canonical union addend %T", u))
		}
		if g[k] == nil {
			g[k] = u
		} else {
			g[k] = p.lfuse(g[k], u)
		}
	}
	return g
}

// lfuse implements LFuse under a policy.
func (p oracle) lfuse(t1, t2 types.Type) types.Type {
	k1, ok1 := types.KindOf(t1)
	k2, ok2 := types.KindOf(t2)
	if !ok1 || !ok2 || k1 != k2 {
		panic(fmt.Sprintf("fusion: LFuse on kinds %v and %v", t1, t2))
	}
	switch k1 {
	case types.KindNull, types.KindBool, types.KindNum, types.KindStr:
		// Line 2: two basic types of the same kind are the same type.
		return t1
	case types.KindRecord:
		return p.fuseRecordKind(t1, t2)
	default: // types.KindArray
		return p.fuseArrays(t1, t2)
	}
}

// fuseRecordKind dispatches the record kind: two plain records use the
// paper's field-wise rule; once either side is an abstracted map type
// {*: T} (the key-abstraction extension), the result stays a map, with
// every other shape's field contents folded into the element type (key
// abstraction wins over tagging); variants types merge tag-wise with
// each other and absorb plain records into Other (see tagged.go).
func (p oracle) fuseRecordKind(t1, t2 types.Type) types.Type {
	r1, ok1 := t1.(*types.Record)
	r2, ok2 := t2.(*types.Record)
	if ok1 && ok2 {
		return p.fuseRecords(r1, r2)
	}
	_, m1 := t1.(*types.Map)
	_, m2 := t2.(*types.Map)
	if !m1 && !m2 {
		return p.fuseVariantsKind(t1, t2)
	}
	elem := types.Type(types.Empty)
	elem = p.absorbIntoMapElem(elem, t1)
	elem = p.absorbIntoMapElem(elem, t2)
	return types.MustMap(elem)
}

// absorbIntoMapElem folds a record-kind type's content into a map
// element type: map elements directly, record field types one by one,
// and variants component-wise (which makes the result a function of the
// underlying field-type multiset, independent of how the variants were
// merged beforehand).
func (p oracle) absorbIntoMapElem(elem types.Type, t types.Type) types.Type {
	switch tt := t.(type) {
	case *types.Map:
		return p.fuse(elem, tt.Elem())
	case *types.Record:
		for _, f := range tt.Fields() {
			elem = p.fuse(elem, f.Type)
		}
		return elem
	case *types.Variants:
		for _, c := range tt.Cases() {
			elem = p.absorbIntoMapElem(elem, c.Type)
		}
		if tt.Other() != nil {
			elem = p.absorbIntoMapElem(elem, tt.Other())
		}
		return elem
	default:
		panic(fmt.Sprintf("fusion: map absorption of %T", t))
	}
}

// fuseRecords implements line 3 of Figure 6: FMatch fields fuse
// recursively keeping the minimum cardinality (? < 1, so a field is
// mandatory only when mandatory on both sides); FUnmatch fields become
// optional.
func (p oracle) fuseRecords(r1, r2 *types.Record) types.Type {
	f1, f2 := r1.Fields(), r2.Fields()
	out := make([]types.Field, 0, len(f1)+len(f2))
	i, j := 0, 0
	for i < len(f1) && j < len(f2) {
		switch {
		case f1[i].Key == f2[j].Key:
			out = append(out, types.Field{
				Key:      f1[i].Key,
				Type:     p.fuse(f1[i].Type, f2[j].Type),
				Optional: f1[i].Optional || f2[j].Optional,
			})
			i++
			j++
		case f1[i].Key < f2[j].Key:
			out = append(out, types.Field{Key: f1[i].Key, Type: f1[i].Type, Optional: true})
			i++
		default:
			out = append(out, types.Field{Key: f2[j].Key, Type: f2[j].Type, Optional: true})
			j++
		}
	}
	for ; i < len(f1); i++ {
		out = append(out, types.Field{Key: f1[i].Key, Type: f1[i].Type, Optional: true})
	}
	for ; j < len(f2); j++ {
		out = append(out, types.Field{Key: f2[j].Key, Type: f2[j].Type, Optional: true})
	}
	// Keys are unique within each input, so the merge cannot collide.
	return types.MustRecord(out...)
}

// fuseArrays implements lines 4-7 of Figure 6, plus the positional
// extension: two equal-length tuples within the policy's cutoff fuse
// element-wise and stay positional; every other combination simplifies
// to a repeated type over the fused body types.
func (p oracle) fuseArrays(t1, t2 types.Type) types.Type {
	a1, ok1 := t1.(*types.Tuple)
	a2, ok2 := t2.(*types.Tuple)
	if ok1 && ok2 && a1.Len() == a2.Len() && p.keepTuple(a1.Len()) {
		elems := make([]types.Type, a1.Len())
		for i := range elems {
			elems[i] = p.fuse(a1.Elems()[i], a2.Elems()[i])
		}
		return types.MustTuple(elems...)
	}
	return types.MustRepeated(p.fuse(p.body(t1), p.body(t2)))
}

// body returns the content type an array-kind type contributes to
// simplified fusion: the element type of a repeated type, or collapse of
// a tuple.
func (p oracle) body(t types.Type) types.Type {
	switch tt := t.(type) {
	case *types.Repeated:
		return tt.Elem()
	case *types.Tuple:
		return p.collapse(tt)
	default:
		panic(fmt.Sprintf("fusion: array body of %T", t))
	}
}

// collapse implements lines 8-9 of Figure 6 under a policy.
func (p oracle) collapse(t *types.Tuple) types.Type {
	acc := types.Type(types.Empty)
	elems := t.Elems()
	// Right fold, as in collapse(ArrT(T, AT)) = Fuse(T, collapse(AT)).
	for i := len(elems) - 1; i >= 0; i-- {
		acc = p.fuse(elems[i], acc)
	}
	return acc
}

// simplify is Simplify, rebuilding every node.
func (p oracle) simplify(t types.Type) types.Type {
	switch tt := t.(type) {
	case types.Basic, types.EmptyType:
		return t
	case *types.Record:
		fs := tt.Fields()
		out := make([]types.Field, len(fs))
		for i, f := range fs {
			out[i] = types.Field{Key: f.Key, Type: p.simplify(f.Type), Optional: f.Optional}
		}
		return types.MustRecord(out...)
	case *types.Tuple:
		simplified := make([]types.Type, tt.Len())
		for i, e := range tt.Elems() {
			simplified[i] = p.simplify(e)
		}
		if p.keepTuple(tt.Len()) {
			return types.MustTuple(simplified...)
		}
		return types.MustRepeated(p.collapse(types.MustTuple(simplified...)))
	case *types.Map:
		return types.MustMap(p.simplify(tt.Elem()))
	case *types.Variants:
		if tt.Collapsed() {
			return types.MustCollapsedVariants(p.simplify(tt.Other()).(*types.Record))
		}
		cs := make([]types.Variant, tt.Len())
		for i, c := range tt.Cases() {
			cs[i] = types.Variant{Tag: c.Tag, Type: p.simplify(c.Type).(*types.Record)}
		}
		var other *types.Record
		if tt.Other() != nil {
			other = p.simplify(tt.Other()).(*types.Record)
		}
		return types.MustVariants(tt.Key(), tt.Wrapper(), cs, other)
	case *types.Repeated:
		return types.MustRepeated(p.simplify(tt.Elem()))
	case *types.Union:
		alts := tt.Alts()
		out := make([]types.Type, len(alts))
		for i, a := range alts {
			out[i] = p.simplify(a)
		}
		// Simplification can merge two array-kind alternatives (a tuple
		// and a repeated type) into the same kind slot; refuse through
		// fuse to restore normality.
		acc := types.Type(types.Empty)
		for _, a := range out {
			acc = p.fuse(acc, a)
		}
		return acc
	default:
		panic(fmt.Sprintf("fusion: unknown type %T", t))
	}
}

// variantsCap returns the effective tag cap: the policy's knob, or the
// default when a variants type is fused under a policy that never
// produces one (parsed or persisted types fed back through Fuse).
func (p oracle) variantsCap() int {
	if p.o.Tagged && p.o.MaxVariants > 0 {
		return p.o.MaxVariants
	}
	return DefaultMaxVariants
}

// fuseRecordsR is fuseRecords with the result typed as the record it
// always is.
func (p oracle) fuseRecordsR(r1, r2 *types.Record) *types.Record {
	return p.fuseRecords(r1, r2).(*types.Record)
}

// fuseVariantsKind fuses two record-kind types of which at least one is
// a variants type and neither is a map (maps absorb the whole kind in
// fuseRecordKind).
func (p oracle) fuseVariantsKind(t1, t2 types.Type) types.Type {
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
func (p oracle) fuseVariantsRecord(v *types.Variants, r *types.Record) types.Type {
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
func (p oracle) fuseVariants(a, b *types.Variants) types.Type {
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
func (p oracle) flattenVariants(v *types.Variants) *types.Record {
	var acc *types.Record
	add := func(r *types.Record) {
		if acc == nil {
			acc = r
		} else {
			acc = p.fuseRecordsR(acc, r)
		}
	}
	for _, c := range v.Cases() {
		add(c.Type)
	}
	if v.Other() != nil {
		add(v.Other())
	}
	return acc
}

// finalize lowers the intermediate variants states after the final
// reduce: collapsed unions become their plain record, wrapper unions
// with fewer than two observed tags fold back into the record fusion
// of their components (a single one-field record is overwhelmingly a
// nested object, not a discriminated stream — Twitter-style wrappers
// prove themselves by exhibiting several tags), and keyed unions keep
// even a single case (the constant discriminator is informative). The
// pass recurses structurally, so nested unions lower too.
func (p oracle) finalize(t types.Type) types.Type {
	switch tt := t.(type) {
	case types.Basic, types.EmptyType:
		return t
	case *types.Record:
		fs := tt.Fields()
		out := make([]types.Field, len(fs))
		for i, f := range fs {
			out[i] = types.Field{Key: f.Key, Type: p.finalize(f.Type), Optional: f.Optional}
		}
		return types.MustRecord(out...)
	case *types.Variants:
		if tt.Collapsed() {
			return p.finalize(tt.Other())
		}
		if tt.Wrapper() && tt.Len() < 2 {
			return p.finalize(p.flattenVariants(tt))
		}
		cs := make([]types.Variant, tt.Len())
		for i, c := range tt.Cases() {
			cs[i] = types.Variant{Tag: c.Tag, Type: p.finalize(c.Type).(*types.Record)}
		}
		var other *types.Record
		if tt.Other() != nil {
			other = p.finalize(tt.Other()).(*types.Record)
		}
		return types.MustVariants(tt.Key(), tt.Wrapper(), cs, other)
	case *types.Map:
		return types.MustMap(p.finalize(tt.Elem()))
	case *types.Tuple:
		elems := make([]types.Type, tt.Len())
		for i, e := range tt.Elems() {
			elems[i] = p.finalize(e)
		}
		return types.MustTuple(elems...)
	case *types.Repeated:
		return types.MustRepeated(p.finalize(tt.Elem()))
	case *types.Union:
		alts := tt.Alts()
		out := make([]types.Type, len(alts))
		for i, a := range alts {
			out[i] = p.finalize(a)
		}
		// Lowering keeps every alternative in its kind (variants lower
		// to records, both record-kind), so normality is preserved.
		return types.MustUnion(out...)
	default:
		panic(fmt.Sprintf("fusion: unknown type %T", t))
	}
}
