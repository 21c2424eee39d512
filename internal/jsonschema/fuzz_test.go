package jsonschema

import (
	"encoding/json"
	"fmt"
	"testing"
	"unicode/utf8"

	"repro/internal/types"
)

// FuzzJSONSchemaCanonical renders arbitrary types of the paper's syntax:
// Marshal must succeed with valid JSON, and — where every key is valid
// UTF-8, so decoding loses nothing — re-encoding the output through
// encoding/json must reproduce it byte for byte. The type T is also
// rendered inside {a: T, b: T′, c: [T*], d: {e: T}}, T′ a near-copy of
// T (perturb), where the writer copies T's repeats: the bytes must be
// the oracle's.
func FuzzJSONSchemaCanonical(f *testing.F) {
	for _, s := range []string{
		"Null", "Bool", "Num", "Str", "ε", "[]", "[ε*]", "{}",
		"{a: Num, b: Str?}", "[Num, Str]", "[(Num + {E: Str})*]",
		"{*: {v: Num}}", "Num + Str + {x: Bool} + [Null*]",
		`{"<a&b>": Num, "x>y": Str}`,
		`{"q\"uote": Num, "back\\slash": Str}`,
		`{"\u0000\u0001\b\f\n\r\t\u001f": Bool}`,
		`{"\u2028": Num, "\u2029 sep": Null}`,
		`{"ünïcødé": Num, "日本語": [Str*], "emoji 😀": Bool}`,
		"variants(type){a: {x: Num}, b: {type: Str, y: Str?}, *: {id: Num}}",
		`variants(kind){"<tag>": {kind: Str}, "q\"t": {n: Num}}`,
		"wrapper{delete: {delete: {id: Num}}, *: {id: Num, text: Str}}",
		"collapsed{*: {a: Num, b: Str?}}",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		typ, err := types.Parse(src)
		if err != nil {
			return
		}
		out, err := Marshal(typ)
		if err != nil {
			t.Fatalf("Marshal(%s): %v", typ, err)
		}
		if !json.Valid(out) {
			t.Fatalf("Marshal(%s) is not valid JSON:\n%s", typ, out)
		}
		requireOracle(t, src, withCopies(typ, len(src)), nil)
		if !keysValidUTF8(typ) {
			return
		}
		want, err := reencode(out)
		if err != nil {
			t.Fatalf("re-encoding Marshal(%s): %v", typ, err)
		}
		if string(out) != string(want) {
			t.Fatalf("Marshal(%s) differs from encoding/json\n got: %s\nwant: %s", typ, out, want)
		}
	})
}

// keysValidUTF8 reports whether every record key, variant key and tag
// in t is valid UTF-8 (json.Unmarshal would otherwise replace bytes).
func keysValidUTF8(t types.Type) bool {
	switch tt := t.(type) {
	case *types.Record:
		for _, f := range tt.Fields() {
			if !utf8.ValidString(f.Key) || !keysValidUTF8(f.Type) {
				return false
			}
		}
	case *types.Tuple:
		for _, e := range tt.Elems() {
			if !keysValidUTF8(e) {
				return false
			}
		}
	case *types.Repeated:
		return keysValidUTF8(tt.Elem())
	case *types.Map:
		return keysValidUTF8(tt.Elem())
	case *types.Union:
		for _, a := range tt.Alts() {
			if !keysValidUTF8(a) {
				return false
			}
		}
	case *types.Variants:
		if !utf8.ValidString(tt.Key()) || (tt.Other() != nil && !keysValidUTF8(tt.Other())) {
			return false
		}
		for _, c := range tt.Cases() {
			if !utf8.ValidString(c.Tag) || !keysValidUTF8(c.Type) {
				return false
			}
		}
	}
	return true
}

// withCopies returns {a: t, b: t′, c: [t*], d: {e: t}}, t′ being t
// perturbed at node n: t's shapes repeat at several depths next to a
// near-copy.
func withCopies(t types.Type, n int) types.Type {
	return types.MustRecord(
		types.Field{Key: "a", Type: t},
		types.Field{Key: "b", Type: perturb(t, n)},
		types.Field{Key: "c", Type: types.MustRepeated(t)},
		types.Field{Key: "d", Type: types.MustRecord(types.Field{Key: "e", Type: t})},
	)
}

// perturb returns t with its n-th node (in preorder, leaves included,
// n taken modulo the node count) changed in one place: a basic type
// becomes the next one, ε becomes Null, a record's first field flips
// its optional flag, a tuple gains an element, [T*] becomes [T], a map
// {*: T} becomes [T*], a union loses its last alternative, and a tagged
// union renames its first tag, or uncollapses into its Other record.
func perturb(t types.Type, n int) types.Type {
	count := 0
	types.Walk(t, func(types.Type) bool { count++; return true })
	n %= count
	return perturbAt(t, &n)
}

func perturbAt(t types.Type, n *int) types.Type {
	if *n == 0 {
		*n = -1
		switch tt := t.(type) {
		case types.Basic:
			return (tt + 1) % 4
		case types.EmptyType:
			return types.Null
		case *types.Record:
			fs := append([]types.Field(nil), tt.Fields()...)
			if len(fs) == 0 {
				return types.MustRecord(types.Field{Key: "p", Type: types.Null})
			}
			fs[0].Optional = !fs[0].Optional
			return types.MustRecord(fs...)
		case *types.Tuple:
			return types.MustTuple(append(append([]types.Type(nil), tt.Elems()...), types.Null)...)
		case *types.Repeated:
			return types.MustTuple(tt.Elem())
		case *types.Map:
			return types.MustRepeated(tt.Elem())
		case *types.Union:
			return types.MustUnion(tt.Alts()[:tt.Len()-1]...)
		case *types.Variants:
			if tt.Collapsed() {
				return tt.Other()
			}
			cs := append([]types.Variant(nil), tt.Cases()...)
			for _, ok := tt.Get(cs[0].Tag); ok; _, ok = tt.Get(cs[0].Tag) {
				cs[0].Tag += "~"
			}
			return types.MustVariants(tt.Key(), tt.Wrapper(), cs, tt.Other())
		}
		panic(fmt.Sprintf("jsonschema: unknown type %T", t))
	}
	*n--
	kid := func(c types.Type) types.Type {
		if *n < 0 {
			return c
		}
		return perturbAt(c, n)
	}
	switch tt := t.(type) {
	case *types.Record:
		fs := append([]types.Field(nil), tt.Fields()...)
		for i := range fs {
			fs[i].Type = kid(fs[i].Type)
		}
		return types.MustRecord(fs...)
	case *types.Tuple:
		es := append([]types.Type(nil), tt.Elems()...)
		for i := range es {
			es[i] = kid(es[i])
		}
		return types.MustTuple(es...)
	case *types.Repeated:
		return types.MustRepeated(kid(tt.Elem()))
	case *types.Map:
		return types.MustMap(kid(tt.Elem()))
	case *types.Union:
		as := append([]types.Type(nil), tt.Alts()...)
		for i := range as {
			as[i] = kid(as[i])
		}
		return types.MustUnion(as...)
	case *types.Variants:
		cs := append([]types.Variant(nil), tt.Cases()...)
		for i := range cs {
			cs[i].Type = asRecord(kid(cs[i].Type))
		}
		other := tt.Other()
		if other != nil {
			other = asRecord(kid(other))
		}
		if tt.Collapsed() {
			return types.MustCollapsedVariants(other)
		}
		return types.MustVariants(tt.Key(), tt.Wrapper(), cs, other)
	}
	return t
}

// asRecord keeps a perturbed case record a record: a record whose
// first field flipped stays one, anything else is wrapped.
func asRecord(t types.Type) *types.Record {
	if r, ok := t.(*types.Record); ok {
		return r
	}
	return types.MustRecord(types.Field{Key: "w", Type: t})
}
