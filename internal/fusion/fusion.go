// Package fusion implements the second phase of the paper's approach
// (Section 5.2): the binary type-fusion operator of Figures 5 and 6 and
// its n-ary folds. Fuse computes a compact supertype of its two inputs
// by collapsing structure they share:
//
//   - identical basic types collapse, different kinds meet in a union;
//   - record types merge field-wise: matching keys fuse recursively and
//     keep the smaller cardinality (? < 1), unmatched keys become
//     optional (rules R1 and R2 of Section 2);
//   - array types are first simplified — collapse replaces a positional
//     tuple type by the fusion of its element types — and then fused
//     element-wise into a repeated type [T*].
//
// Fuse is correct (Theorem 5.2: both inputs are subtypes of the result),
// commutative (Theorem 5.4) and associative (Theorem 5.5) on normal
// types, which is what lets the reduce phase apply it in any order and in
// parallel. The package's property tests check all three theorems.
//
// The package-level functions implement the paper's algorithm exactly;
// Options provides the positional-array extension sketched in the
// paper's conclusion (see options.go).
package fusion

import (
	"fmt"
	"slices"

	"repro/internal/types"
)

// Fuse merges two types of arbitrary shape, the function Fuse(T1, T2) of
// Figure 6 (line 1). Union addends of matching kind are fused pairwise
// with LFuse (the paper's KMatch set), addends whose kind appears on only
// one side are copied unchanged (KUnmatch), and the results are rebuilt
// into a union with ⊕.
//
// Inputs are expected to be normal types (each kind at most once per
// union, the invariant all our algorithms maintain); if a non-normal
// union slips in, same-kind addends are folded together first, which
// keeps Fuse total and still yields a supertype.
func Fuse(t1, t2 types.Type) types.Type { return Options{}.Fuse(t1, t2) }

// LFuse fuses two non-union types of the same kind (Figure 6, lines 2-7).
// Calling it with types of different kinds is a programming error.
func LFuse(t1, t2 types.Type) types.Type { return Options{}.lfuse(t1, t2) }

// Simplify rewrites every tuple array type inside t into its simplified
// repeated form [collapse(...)​*]. Phase one of the paper infers tuple
// types; fusing a type with itself would simplify it too, but Simplify
// does it directly and is what the pipeline applies when a partition
// contains a single value.
func Simplify(t types.Type) types.Type { return Options{}.Simplify(t) }

// FuseAll folds Fuse over ts from the left, returning ε for an empty
// slice. By Theorems 5.4 and 5.5 any other fold shape yields the same
// result; the map-reduce engine exploits exactly this freedom.
func FuseAll(ts []types.Type) types.Type {
	acc := types.Type(types.Empty)
	for _, t := range ts {
		acc = Fuse(acc, t)
	}
	return acc
}

// FuseAllTree folds Fuse over ts through a TreeFold, as a balanced
// binary tree, the shape a parallel reduction produces. It returns ε
// for an empty slice. Beyond parallelism, the tree shape is also
// asymptotically cheaper on fusion-hostile data (see TreeFold and the
// reduce-shape ablation).
func FuseAllTree(ts []types.Type) types.Type {
	f := NewTreeFold(Fuse)
	for _, t := range ts {
		f.Add(t)
	}
	return f.Result()
}

// A TreeFold reduces a stream of types as a balanced binary tree while
// the types arrive, so a caller never has to hold the stream. levels[i]
// is nil or the fusion of 2^i consecutive inputs, and Add carries like a
// binary counter: after n adds the fold holds at most bits.Len(n)
// partial types.
//
// On repetitive data the balanced and the left-fold shape cost the
// same, but on high-entropy data (Wikidata's ids-as-keys records, where
// no two records share a shape and the fused type keeps growing) a left
// fold rebuilds an ever-larger record per input, O(inputs × fused
// size), while the tree keeps operand sizes matched and the total merge
// work near O(total size × log inputs). Fusion is associative and
// commutative (Theorems 5.4 and 5.5), so the fold shape is invisible in
// the result: TestTreeFoldConformance pins it byte for byte against
// FuseAll, and the pipeline's absorb fuzzers pin both of its drivers
// against a left fold that types every record.
type TreeFold struct {
	fuse   func(a, b types.Type) types.Type
	levels []types.Type
}

// NewTreeFold returns an empty fold under the given binary fusion, such
// as Fuse or an Options' Fuse method.
func NewTreeFold(fuse func(a, b types.Type) types.Type) TreeFold {
	return TreeFold{fuse: fuse}
}

// Add folds t in after every type added before it.
func (f *TreeFold) Add(t types.Type) {
	for i, l := range f.levels {
		if l == nil {
			f.levels[i] = t
			return
		}
		t = f.fuse(l, t)
		f.levels[i] = nil
	}
	f.levels = append(f.levels, t)
}

// Partials returns the fold's partial results, smallest first: each
// non-nil entry is the fusion of a run of the types added so far, and
// Result fuses them all. The slice is the fold's own; it is valid until
// the next Add.
func (f *TreeFold) Partials() []types.Type { return f.levels }

// Result returns the fusion of every type added so far, ε when none
// was. It leaves the fold unchanged, so adding may continue.
func (f *TreeFold) Result() types.Type {
	var acc types.Type
	for _, l := range f.levels {
		switch {
		case l == nil:
		case acc == nil:
			acc = l
		default:
			acc = f.fuse(l, acc)
		}
	}
	if acc == nil {
		return types.Empty
	}
	return acc
}

// Fuse merges two types under this policy; with the zero Options it is
// exactly the package-level Fuse. It is the kernel every recursive
// fusion goes through.
//
// One settled operand fused with itself is returned at once: fusion is
// idempotent on settled types (types.Settled) under every policy, and
// the map stage's walk hands the fold records whose member subtrees
// are the reference's own nodes, so Fuse(F, T′) meets them pointer for
// pointer. Two non-union operands skip the kind tables: ε is the
// identity, the same kind goes to lfuse, and different kinds meet in a
// two-alternative union. Whenever the result is structurally an
// operand, the operand itself is returned (see fuseRecords for the
// copy-on-write rule).
func (o Options) Fuse(t1, t2 types.Type) types.Type {
	if t1 == t2 && types.Settled(t1) {
		return t1
	}
	_, u1 := t1.(*types.Union)
	_, u2 := t2.(*types.Union)
	if !u1 && !u2 {
		if t1 == types.Empty {
			return t2
		}
		if t2 == types.Empty {
			return t1
		}
		k1, _ := types.KindOf(t1)
		k2, _ := types.KindOf(t2)
		if k1 == k2 {
			return o.lfuse(t1, t2)
		}
		return types.MustUnion(t1, t2)
	}
	g1 := o.groupByKind(t1)
	g2 := o.groupByKind(t2)
	var out [6]types.Type
	n := 0
	for k := range out {
		a, b := g1[k], g2[k]
		switch {
		case a != nil && b != nil:
			out[n] = o.lfuse(a, b)
		case a != nil:
			out[n] = a
		case b != nil:
			out[n] = b
		default:
			continue
		}
		n++
	}
	if sameUnion(t1, out[:n]) {
		return t1
	}
	if sameUnion(t2, out[:n]) {
		return t2
	}
	return types.MustUnion(out[:n]...)
}

// sameUnion reports whether t is a union whose alternatives are exactly
// alts, pointer for pointer. alts holds one type per kind, in kind
// order, which is a normal union's canonical order. A non-normal union
// never matches: it has more alternatives than kinds, so alts can only
// be as long if the other operand adds a kind, and that alternative is
// not one of t's.
func sameUnion(t types.Type, alts []types.Type) bool {
	u, ok := t.(*types.Union)
	return ok && slices.Equal(u.Alts(), alts)
}

// distinctKinds reports whether no two alternatives of u share a kind,
// the top level of types.IsNormal.
func distinctKinds(u *types.Union) bool {
	var seen [6]bool
	for _, a := range u.Alts() {
		k, ok := types.KindOf(a)
		if !ok || seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

// groupByKind buckets the non-union addends of t by kind, folding
// same-kind addends with lfuse so each bucket holds at most one type.
func (o Options) groupByKind(t types.Type) [6]types.Type {
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
			g[k] = o.lfuse(g[k], u)
		}
	}
	return g
}

// lfuse implements LFuse under a policy.
func (o Options) lfuse(t1, t2 types.Type) types.Type {
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
		return o.fuseRecordKind(t1, t2)
	default: // types.KindArray
		return o.fuseArrays(t1, t2)
	}
}

// fuseRecordKind dispatches the record kind: two plain records use the
// paper's field-wise rule; once either side is an abstracted map type
// {*: T} (the key-abstraction extension), the result stays a map, with
// every other shape's field contents folded into the element type (key
// abstraction wins over tagging); variants types merge tag-wise with
// each other and absorb plain records into Other (see tagged.go).
func (o Options) fuseRecordKind(t1, t2 types.Type) types.Type {
	r1, ok1 := t1.(*types.Record)
	r2, ok2 := t2.(*types.Record)
	if ok1 && ok2 {
		return o.fuseRecords(r1, r2)
	}
	_, m1 := t1.(*types.Map)
	_, m2 := t2.(*types.Map)
	if !m1 && !m2 {
		return o.fuseVariantsKind(t1, t2)
	}
	elem := types.Type(types.Empty)
	elem = o.absorbIntoMapElem(elem, t1)
	elem = o.absorbIntoMapElem(elem, t2)
	return types.MustMap(elem)
}

// absorbIntoMapElem folds a record-kind type's content into a map
// element type: map elements directly, a record's field types through
// their collapse, and variants component-wise (which makes the result a
// function of the underlying field-type multiset, independent of how
// the variants were merged beforehand).
func (o Options) absorbIntoMapElem(elem types.Type, t types.Type) types.Type {
	switch tt := t.(type) {
	case *types.Map:
		return o.Fuse(elem, tt.Elem())
	case *types.Record:
		fields := collapse(o.Fuse, tt.Fields(), func(f types.Field) types.Type { return f.Type })
		return o.Fuse(elem, fields)
	case *types.Variants:
		for _, c := range tt.Cases() {
			elem = o.absorbIntoMapElem(elem, c.Type)
		}
		if tt.Other() != nil {
			elem = o.absorbIntoMapElem(elem, tt.Other())
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
//
// Copy-on-write: the merge runs without a field slice while its output
// is still a prefix of r1's or r2's fields (same keys, same optional
// flags, pointer-identical field types). When the whole output is such
// a prefix, that operand is the result and nothing is allocated: this
// is the fold step Fuse(F, t) = F on data that repeats. Otherwise the
// slice is allocated once, at its exact size, at the first field that
// differs from both operands, and handed to the record without a copy.
func (o Options) fuseRecords(r1, r2 *types.Record) types.Type {
	f1, f2 := r1.Fields(), r2.Fields()
	var out []types.Field
	same1, same2 := true, true
	n := 0 // fields merged so far
	i, j := 0, 0
	for i < len(f1) || j < len(f2) {
		var f types.Field
		switch {
		case j == len(f2) || (i < len(f1) && f1[i].Key < f2[j].Key):
			f = types.Field{Key: f1[i].Key, Type: f1[i].Type, Optional: true}
			i++
		case i == len(f1) || f2[j].Key < f1[i].Key:
			f = types.Field{Key: f2[j].Key, Type: f2[j].Type, Optional: true}
			j++
		default:
			f = types.Field{
				Key:      f1[i].Key,
				Type:     o.Fuse(f1[i].Type, f2[j].Type),
				Optional: f1[i].Optional || f2[j].Optional,
			}
			i++
			j++
		}
		if out == nil {
			s1 := same1 && n < len(f1) && f1[n] == f
			s2 := same2 && n < len(f2) && f2[n] == f
			if !s1 && !s2 {
				prefix := f1
				if !same1 {
					prefix = f2
				}
				out = make([]types.Field, n, n+1+mergedLen(f1[i:], f2[j:]))
				copy(out, prefix[:n])
			}
			same1, same2 = s1, s2
		}
		if out != nil {
			out = append(out, f)
		}
		n++
	}
	switch {
	case out != nil:
		// Keys are unique within each input, so the merge is strictly
		// ascending.
		return types.MustRecordSorted(out)
	case same1:
		return r1
	default:
		return r2
	}
}

// mergedLen returns the number of distinct keys of two key-sorted field
// lists: the length of their merge.
func mergedLen(f1, f2 []types.Field) int {
	n, i, j := 0, 0, 0
	for i < len(f1) && j < len(f2) {
		switch {
		case f1[i].Key == f2[j].Key:
			i++
			j++
		case f1[i].Key < f2[j].Key:
			i++
		default:
			j++
		}
		n++
	}
	return n + len(f1) - i + len(f2) - j
}

// fuseArrays implements lines 4-7 of Figure 6, plus the positional
// extension: two equal-length tuples within the policy's cutoff fuse
// element-wise and stay positional; every other combination simplifies
// to a repeated type over the fused body types. An operand whose
// elements (or [T*] body) the fusion leaves pointer-identical is
// returned as is.
func (o Options) fuseArrays(t1, t2 types.Type) types.Type {
	a1, ok1 := t1.(*types.Tuple)
	a2, ok2 := t2.(*types.Tuple)
	if ok1 && ok2 && a1.Len() == a2.Len() && o.keepTuple(a1.Len()) {
		e1, e2 := a1.Elems(), a2.Elems()
		var elems []types.Type // nil while the result is still a1
		for i := range e1 {
			e := o.Fuse(e1[i], e2[i])
			if elems == nil {
				if e == e1[i] {
					continue
				}
				elems = make([]types.Type, len(e1))
				copy(elems, e1[:i])
			}
			elems[i] = e
		}
		switch {
		case elems == nil:
			return a1
		case slices.Equal(elems, e2):
			return a2
		}
		return types.MustTuple(elems...)
	}
	body := o.Fuse(o.body(t1), o.body(t2))
	if r, ok := t1.(*types.Repeated); ok && r.Elem() == body {
		return t1
	}
	if r, ok := t2.(*types.Repeated); ok && r.Elem() == body {
		return t2
	}
	return types.MustRepeated(body)
}

// body returns the content type an array-kind type contributes to
// simplified fusion: the element type of a repeated type, or collapse of
// a tuple.
func (o Options) body(t types.Type) types.Type {
	switch tt := t.(type) {
	case *types.Repeated:
		return tt.Elem()
	case *types.Tuple:
		return collapse(o.Fuse, tt.Elems(), elemType)
	default:
		panic(fmt.Sprintf("fusion: array body of %T", t))
	}
}

// collapse implements lines 8-9 of Figure 6 under a policy's fuse: the
// fusion of the types typeOf picks from xs (a tuple's elements, a
// record's fields), ε when xs is empty. The paper's right fold,
// collapse(ArrT(T, AT)) = Fuse(T, collapse(AT)), rebuilds the growing
// accumulator per element, O(n²) when the elements share no keys. By
// Theorems 5.4-5.5 every fold shape gives the same type, so collapse
// halves xs instead: operands stay matched in size, O(n log n), with
// no allocation of its own and n-1 calls to fuse.
func collapse[E any](fuse func(a, b types.Type) types.Type, xs []E, typeOf func(E) types.Type) types.Type {
	switch n := len(xs); n {
	case 0:
		return types.Empty
	case 1:
		return typeOf(xs[0])
	default:
		return fuse(collapse(fuse, xs[:n/2], typeOf), collapse(fuse, xs[n/2:], typeOf))
	}
}

func elemType(t types.Type) types.Type { return t }

// emptyArray is [ε*], the simplified empty array under every policy.
var emptyArray = types.MustRepeated(types.Empty)

// Array returns the array type of elements already simplified under
// this policy, the one array rule of Simplify and the map stage's walk:
// a kept tuple stays positional, any other array is [collapse*], and []
// is one shared [ε*]. elems is not retained.
func (o Options) Array(elems []types.Type) types.Type {
	switch {
	case o.keepTuple(len(elems)):
		return types.MustTuple(elems...)
	case len(elems) == 0:
		return emptyArray
	}
	return types.MustRepeated(collapse(o.Fuse, elems, elemType))
}

// Simplify rewrites array types into the policy's canonical form:
// tuples longer than the cutoff (all tuples, for the zero Options)
// become repeated types; preserved tuples keep their positions with
// each element simplified recursively. A node none of whose children
// changes is returned as is, so a tuple-free type simplifies to itself
// without allocating.
func (o Options) Simplify(t types.Type) types.Type {
	switch tt := t.(type) {
	case types.Basic, types.EmptyType:
		return t
	case *types.Record:
		fs, changed := types.MapChildren(tt.Fields(), func(f types.Field) types.Field {
			f.Type = o.Simplify(f.Type)
			return f
		})
		if !changed {
			return t
		}
		return types.MustRecordSorted(fs)
	case *types.Tuple:
		simplified, changed := types.MapChildren(tt.Elems(), o.Simplify)
		if !changed && o.keepTuple(tt.Len()) {
			return t
		}
		return o.Array(simplified)
	case *types.Map:
		if e := o.Simplify(tt.Elem()); e != tt.Elem() {
			return types.MustMap(e)
		}
		return t
	case *types.Variants:
		if tt.Collapsed() {
			if s := o.Simplify(tt.Other()); s != types.Type(tt.Other()) {
				return types.MustCollapsedVariants(s.(*types.Record))
			}
			return t
		}
		cs, changed := types.MapChildren(tt.Cases(), func(c types.Variant) types.Variant {
			c.Type = o.Simplify(c.Type).(*types.Record)
			return c
		})
		other := tt.Other()
		if other != nil {
			if s := o.Simplify(other); s != types.Type(other) {
				other, changed = s.(*types.Record), true
			}
		}
		if !changed {
			return t
		}
		return types.MustVariants(tt.Key(), tt.Wrapper(), cs, other)
	case *types.Repeated:
		if e := o.Simplify(tt.Elem()); e != tt.Elem() {
			return types.MustRepeated(e)
		}
		return t
	case *types.Union:
		out, changed := types.MapChildren(tt.Alts(), o.Simplify)
		if !changed && distinctKinds(tt) {
			return t
		}
		// Simplification can merge two array-kind alternatives (a tuple
		// and a repeated type) into the same kind slot, and a non-normal
		// input has same-kind alternatives already; re-fuse them to
		// restore normality.
		return collapse(o.Fuse, out, elemType)
	default:
		panic(fmt.Sprintf("fusion: unknown type %T", t))
	}
}
