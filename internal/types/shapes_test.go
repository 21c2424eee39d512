package types

import (
	"fmt"
	"testing"
)

// preorder lists the composite nodes of t in the order Shapes numbers
// them.
func preorder(t Type) []Type {
	var out []Type
	var walk func(Type)
	walk = func(t Type) {
		if _, leaf := leafID(t); leaf {
			return
		}
		out = append(out, t)
		switch tt := t.(type) {
		case *Record:
			for _, f := range tt.fields {
				walk(f.Type)
			}
		case *Tuple:
			for _, e := range tt.elems {
				walk(e)
			}
		case *Repeated:
			walk(tt.elem)
		case *Map:
			walk(tt.elem)
		case *Union:
			for _, a := range tt.alts {
				walk(a)
			}
		case *Variants:
			for _, c := range tt.cases {
				walk(c.Type)
			}
			if tt.other != nil {
				walk(tt.other)
			}
		}
	}
	walk(t)
	return out
}

// perturb returns t with its n-th node (in preorder, leaves included,
// n taken modulo the node count) changed in one place: a basic type
// becomes the next one, ε becomes Null, a record's first field flips
// its optional flag, a tuple gains an element, [T*] becomes [T], a map
// {*: T} becomes [T*], a union loses its last alternative, and a tagged
// union renames its first tag, or uncollapses into its Other record.
func perturb(t Type, n int) Type {
	count := 0
	Walk(t, func(Type) bool { count++; return true })
	n %= count
	return perturbAt(t, &n)
}

func perturbAt(t Type, n *int) Type {
	if *n == 0 {
		*n = -1
		switch tt := t.(type) {
		case Basic:
			return (tt + 1) % 4
		case EmptyType:
			return Null
		case *Record:
			if len(tt.fields) == 0 {
				return rec(fld("p", Null))
			}
			fs := append([]Field(nil), tt.fields...)
			fs[0].Optional = !fs[0].Optional
			return rec(fs...)
		case *Tuple:
			return tup(append(append([]Type(nil), tt.elems...), Null)...)
		case *Repeated:
			return tup(tt.elem)
		case *Map:
			return rep(tt.elem)
		case *Union:
			return uni(tt.alts[:len(tt.alts)-1]...)
		case *Variants:
			if tt.collapsed {
				return tt.other
			}
			cs := append([]Variant(nil), tt.cases...)
			for _, ok := tt.Get(cs[0].Tag); ok; _, ok = tt.Get(cs[0].Tag) {
				cs[0].Tag += "~"
			}
			return MustVariants(tt.key, tt.wrapper, cs, tt.other)
		}
		panic(fmt.Sprintf("types: unknown type %T", t))
	}
	*n--
	kid := func(c Type) Type {
		if *n < 0 {
			return c
		}
		return perturbAt(c, n)
	}
	switch tt := t.(type) {
	case *Record:
		fs := append([]Field(nil), tt.fields...)
		for i := range fs {
			fs[i].Type = kid(fs[i].Type)
		}
		return rec(fs...)
	case *Tuple:
		es := append([]Type(nil), tt.elems...)
		for i := range es {
			es[i] = kid(es[i])
		}
		return tup(es...)
	case *Repeated:
		return rep(kid(tt.elem))
	case *Map:
		return MustMap(kid(tt.elem))
	case *Union:
		as := append([]Type(nil), tt.alts...)
		for i := range as {
			as[i] = kid(as[i])
		}
		return uni(as...)
	case *Variants:
		cs := append([]Variant(nil), tt.cases...)
		for i := range cs {
			cs[i].Type = asRecord(kid(cs[i].Type))
		}
		other := tt.other
		if other != nil {
			other = asRecord(kid(other))
		}
		if tt.collapsed {
			return MustCollapsedVariants(other)
		}
		return MustVariants(tt.key, tt.wrapper, cs, other)
	}
	return t
}

// asRecord keeps a perturbed case record a record: a record whose
// first field flipped stays one, anything else is wrapped.
func asRecord(t Type) *Record {
	if r, ok := t.(*Record); ok {
		return r
	}
	return rec(fld("w", t))
}

// withCopies returns {a: t, b: t′, c: [t*], d: {e: t}}, t′ being t
// perturbed at node n: t's shapes repeat at several depths next to a
// near-copy.
func withCopies(t Type, n int) Type {
	return rec(fld("a", t), fld("b", perturb(t, n)), fld("c", rep(t)), fld("d", rec(fld("e", t))))
}

// nearDuplicates are types whose subtrees repeat, or nearly repeat: one
// subtree at several depths, and copies that differ only in one
// optional flag, one key, one leaf kind or one variants tag.
var nearDuplicates = []string{
	"{a: {x: Num, y: [Str*]}, b: {c: {x: Num, y: [Str*]}}, d: [{x: Num, y: [Str*]}*], e: [[{x: Num, y: [Str*]}*]*]}",
	"{a: {x: Num, y: Str}, b: {x: Num, y: Str?}, c: {x: Num, y: Str}}",
	"{a: {x: Num, y: Str}, b: {x: Num, z: Str}, c: {x: Num, y: Str}}",
	"{a: {x: Num, y: [Str*]}, b: {x: Num, y: [Bool*]}, c: {x: Num, y: [Str*]}}",
	"{a: variants(type){p: {type: Str, q: {n: Num}}}, b: variants(type){r: {type: Str, q: {n: Num}}}}",
	"{a: wrapper{d: {d: {id: Num}}, e: {e: {id: Num}}}, b: wrapper{d: {d: {id: Num}}, f: {f: {id: Num}}}}",
	"{a: variants(k){t: {k: Str}}, b: wrapper{t: {k: Str}}, c: collapsed{*: {k: Str}}, d: {k: Str}}",
	"[{k: Num} + [Str*], {k: Num} + [Str*], {k: Num?} + [Str*], [{k: Num} + [Str*]*]]",
	"{a: {*: {v: Num}}, b: {*: {v: Num?}}, c: [{*: {v: Num}}*], d: collapsed{*: {v: Num}}, e: {v: Num}}",
	"{a: [[Num, Str]*], b: [[Num, Str], [Num, Str]], c: [[Num, Bool]*]}",
}

// shapeTypes are the types the shape tests number: oracleTypes, the
// near-duplicates, and random types next to near-copies of themselves.
func shapeTypes(t *testing.T) []Type {
	ts := oracleTypes(t)
	for _, src := range nearDuplicates {
		ts = append(ts, MustParse(src))
	}
	for seed := uint64(1); seed <= 300; seed++ {
		r := &typeRand{s: seed*0x9e3779b97f4a7c15 | 1}
		ts = append(ts, withCopies(randomType(r, 3), r.intn(64)))
	}
	return ts
}

// TestShapesNumberByEquality: two composite nodes share a shape id
// exactly when they are Equal, End spans each node's subtree, and
// Shared reports a repeat exactly when another node is equal.
func TestShapesNumberByEquality(t *testing.T) {
	for _, tt := range shapeTypes(t) {
		s := NumberShapes(tt)
		nodes := preorder(tt)
		if len(s.ids) != len(nodes) {
			t.Fatalf("%s: %d positions for %d composite nodes", tt, len(s.ids), len(nodes))
		}
		for i, a := range nodes {
			if got, want := s.End(i), i+len(preorder(a)); got != want {
				t.Fatalf("%s: node %d (%s) ends at %d, want %d", tt, i, a, got, want)
			}
			repeats := false
			for j, b := range nodes {
				if i != j && Equal(a, b) {
					repeats = true
				}
				if (s.ids[i] == s.ids[j]) != Equal(a, b) {
					t.Fatalf("%s: nodes %s and %s: ids %d and %d, Equal %v", tt, a, b, s.ids[i], s.ids[j], Equal(a, b))
				}
			}
			if id, shared := s.Shared(a, i); id != int(s.ids[i]) || shared != repeats {
				t.Fatalf("%s: Shared(%s) = %d, %v; want %d, %v", tt, a, id, shared, s.ids[i], repeats)
			}
		}
	}
}

// TestShapesCollisionsChecked: a numbering whose every hash collides
// still tells shapes apart, because candidates are compared.
func TestShapesCollisionsChecked(t *testing.T) {
	tt := MustParse(nearDuplicates[1])
	s := NumberShapes(tt)
	for i := range s.shapes {
		s.shapes[i].hash = 0
	}
	s.grow()
	for _, sh := range s.shapes {
		// Re-interning the first node of each shape under the
		// colliding hash must find that shape and no other.
		if got := s.intern(sh.t, int(sh.pos), 0); s.shapes[got].pos != sh.pos {
			t.Fatalf("%s interned as the shape of %s", sh.t, s.shapes[got].t)
		}
	}
}

// TestCodecNearDuplicatesMatchOracle: on repeats and near-repeats,
// the codec writes the oracle's bytes.
func TestCodecNearDuplicatesMatchOracle(t *testing.T) {
	for _, tt := range shapeTypes(t) {
		requireOracleCodec(t, tt)
	}
}
