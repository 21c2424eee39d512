package infer

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/jsontext"
	"repro/internal/types"
	"repro/internal/value"
)

// randomNormal builds a random type in the paper's normal form: basic
// types, records with optional fields, tuples, [T*] and unions with at
// most one alternative per kind. Keys come from a small pool so that
// mutated values hit known and unknown keys alike.
func randomNormal(r *rand.Rand, depth int) types.Type {
	kinds := 6
	if depth <= 0 {
		kinds = 4
	}
	if r.Intn(4) == 0 {
		// A union: two or three distinct kinds.
		perm := r.Perm(kinds)
		alts := make([]types.Type, 2+r.Intn(2))
		for i := range alts {
			alts[i] = randomOfKind(r, types.Kind(perm[i]), depth)
		}
		return types.MustUnion(alts...)
	}
	return randomOfKind(r, types.Kind(r.Intn(kinds)), depth)
}

// randomOfKind builds a random normal type of kind k.
func randomOfKind(r *rand.Rand, k types.Kind, depth int) types.Type {
	switch k {
	case types.KindRecord:
		keys := []string{"a", "b", "c", "id", "x-y", "é", ""}
		var fs []types.Field
		for _, i := range r.Perm(len(keys))[:r.Intn(4)] {
			fs = append(fs, types.Field{Key: keys[i], Type: randomNormal(r, depth-1), Optional: r.Intn(2) == 0})
		}
		return types.MustRecord(fs...)
	case types.KindArray:
		if r.Intn(3) == 0 {
			es := make([]types.Type, r.Intn(3))
			for i := range es {
				es[i] = randomNormal(r, depth-1)
			}
			return types.MustTuple(es...)
		}
		if r.Intn(8) == 0 {
			return types.MustRepeated(types.Empty)
		}
		return types.MustRepeated(randomNormal(r, depth-1))
	default:
		return types.Basic(k)
	}
}

// mutate returns v with one change at its n-th node in pre-order, and
// whether a node took it: a record loses a field or gains an unknown
// key, a scalar turns into another kind, an array gains an element.
// Any of these may or may not leave v a member; Member decides.
func mutate(v value.Value, n *int, r *rand.Rand) (value.Value, bool) {
	here := *n == 0
	*n--
	switch vv := v.(type) {
	case *value.Record:
		fs := append([]value.Field(nil), vv.Fields()...)
		if here {
			if len(fs) > 0 && r.Intn(2) == 0 {
				i := r.Intn(len(fs))
				fs = append(fs[:i], fs[i+1:]...)
			} else {
				fs = append(fs, value.Field{Key: "zz-unknown", Value: value.Null{}})
			}
			return value.MustRecord(fs...), true
		}
		for i := range fs {
			if m, ok := mutate(fs[i].Value, n, r); ok {
				fs[i].Value = m
				return value.MustRecord(fs...), true
			}
		}
	case value.Array:
		if here {
			return append(append(value.Array(nil), vv...), value.Num(1)), true
		}
		for i := range vv {
			if m, ok := mutate(vv[i], n, r); ok {
				out := append(value.Array(nil), vv...)
				out[i] = m
				return out, true
			}
		}
	default:
		if here {
			scalars := []value.Value{value.Null{}, value.Bool(true), value.Num(2), value.Str("s")}
			for {
				if s := scalars[r.Intn(len(scalars))]; s.Kind() != v.Kind() {
					return s, true
				}
			}
		}
	}
	return v, false
}

// appendDoc writes v as JSON, listing each record's fields in reverse
// when rev is set, and writing the first field of the dup-th non-empty
// record in pre-order twice (dup < 0: none). *dup goes below zero when
// the repeat was written.
func appendDoc(dst []byte, v value.Value, rev bool, dup *int) []byte {
	switch vv := v.(type) {
	case *value.Record:
		fs := append([]value.Field(nil), vv.Fields()...)
		if rev {
			for i, j := 0, len(fs)-1; i < j; i, j = i+1, j-1 {
				fs[i], fs[j] = fs[j], fs[i]
			}
		}
		if *dup >= 0 && len(fs) > 0 {
			if *dup == 0 {
				fs = append(fs, fs[0])
			}
			*dup--
		}
		dst = append(dst, '{')
		for i, f := range fs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = value.AppendQuoted(dst, f.Key)
			dst = append(dst, ':')
			dst = appendDoc(dst, f.Value, rev, dup)
		}
		return append(dst, '}')
	case value.Array:
		dst = append(dst, '[')
		for i, e := range vv {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = appendDoc(dst, e, rev, dup)
		}
		return append(dst, ']')
	default:
		return value.AppendJSON(dst, v)
	}
}

// walkDoc walks doc against ref under the paper's policy and also
// reports whether the walk consumed exactly one value.
func walkDoc(doc []byte, ref types.Type, hash bool) (t types.Type, size int, h uint64, exact bool, err error) {
	d := NewBytesDecoder(doc)
	defer d.Release()
	d.SetSimplifier(fusion.Options{})
	t, size, h, err = d.Walk(ref, hash)
	if err == nil {
		_, _, _, end := d.Walk(ref, hash)
		exact = end == io.EOF
	}
	return t, size, h, exact, err
}

// TestWalkAgreesWithMember draws random normal types, witnesses of
// them and mutations of the witnesses, and walks each against the type
// and its simplification: the walk absorbs exactly the values Member
// admits, whatever order the document lists its keys in, and reports
// the size and structural hash of the value's inferred type for members
// and non-members alike, with no hash when asked for none, consuming
// the value to its last byte. Against the simplified type, a
// non-member's walked type satisfies the subtree lemma. A repeated key
// makes any document fail as Next fails on it.
func TestWalkAgreesWithMember(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var o fusion.Options
	var members, nonMembers, repeats int
	for i := 0; i < 4000; i++ {
		ty := randomNormal(r, 3)
		if !types.IsNormal(ty) {
			t.Fatalf("generator built a non-normal type %s", ty)
		}
		w, ok := types.Witness(ty, r)
		if !ok {
			continue
		}
		v := w
		if r.Intn(2) == 0 {
			n := r.Intn(value.Nodes(w))
			v, _ = mutate(w, &n, r)
		}
		rev := r.Intn(2) == 0
		none := -1
		doc := appendDoc(nil, v, rev, &none)
		inferred := Infer(v)
		for _, ref := range []types.Type{ty, o.Simplify(ty)} {
			walked, size, hash, exact, err := walkDoc(doc, ref, true)
			if err != nil {
				t.Fatalf("type %s, value %s: %v", ref, doc, err)
			}
			if want := types.Member(v, ref); (walked == nil) != want {
				t.Fatalf("type %s, value %s: walk absorbs %v, Member %v", ref, doc, walked == nil, want)
			}
			if size != inferred.Size() || hash != types.Hash(inferred) || !exact {
				t.Fatalf("type %s, value %s: size %d, hash %#x, consumed exactly: %v; inferred %s has size %d, hash %#x",
					ref, doc, size, hash, exact, inferred, inferred.Size(), types.Hash(inferred))
			}
			if _, sizeOnly, h, _, _ := walkDoc(doc, ref, false); sizeOnly != size || h != 0 {
				t.Fatalf("type %s, value %s: without a hash, size %d and hash %#x; with, size %d", ref, doc, sizeOnly, h, size)
			}
			if walked == nil {
				members++
				continue
			}
			nonMembers++
			if ref == ty {
				continue
			}
			got, want := o.Fuse(ref, walked), o.Fuse(ref, o.Simplify(inferred))
			if types.Compare(got, want) != 0 || got.String() != want.String() {
				t.Fatalf("type %s, value %s: Fuse(F, T′) = %s, Fuse(F, Simplify(Infer)) = %s", ref, doc, got, want)
			}
		}
		dup := r.Intn(value.Nodes(v))
		doc = appendDoc(nil, v, rev, &dup)
		if dup < 0 {
			repeats++
			_, _, _, _, err := walkDoc(doc, ty, true)
			next := NewBytesDecoder(doc)
			_, nerr := next.Next()
			next.Release()
			if err == nil || nerr == nil || err.Error() != nerr.Error() {
				t.Fatalf("type %s, repeated key in %s: walk err %v, Next err %v", ty, doc, err, nerr)
			}
		}
	}
	if members < 1000 || nonMembers < 1000 || repeats < 100 {
		t.Errorf("weak coverage: %d members, %d non-members, %d repeated keys", members, nonMembers, repeats)
	}
}

// TestWalkCases pins the walk on hand-picked values: the types it
// never absorbs through, malformed and truncated input, and sizes.
func TestWalkCases(t *testing.T) {
	for _, c := range []struct {
		typ, doc string
		size     int
		member   bool
		err      string
	}{
		{"{a: Num, b: Str?}", `{"a": 1}`, 3, true, ""},
		{"{a: Num, b: Str?}", `{"b": "x", "a": 1}`, 5, true, ""},
		{"{a: Num, b: Str?}", `{"b": "x"}`, 3, false, ""},       // mandatory a missing
		{"{a: Num, b: Str?}", `{"a": 1, "c": 2}`, 5, false, ""}, // unknown key
		{"{a: Num, b: Str?}", `{"a": 1, "a": 1}`, 0, false, "duplicate object key"},
		{"{a: Num, b: Str?}", `{"a": 1,}`, 0, false, "expected object key string"},
		{"{a: Num, b: Str?}", `{"a": 1`, 0, false, "expected ',' or '}'"},
		{"{a: Num, b: Str?}", `{"\u0061": 1}`, 3, true, ""}, // escaped key
		{"{a: Num}", `{"": 1, "a": 2}`, 5, false, ""},       // an empty key the type lacks
		{"{a: Num}", `{"a": 1, "": 2, "": 3}`, 0, false, "duplicate object key"},
		{"[(Num + Str)*]", `[1, "x", 2]`, 4, true, ""},
		{"[(Num + Str)*]", `[]`, 1, true, ""},
		{"[(Num + Str)*]", `[1, null]`, 3, false, ""},
		{"[(Num + Str)*]", `[1,]`, 0, false, "unexpected ']'"},
		{"[ε*]", `[]`, 1, true, ""},
		{"[ε*]", `[1]`, 2, false, ""},
		{"[Num, [Str*]]", `[1, ["a"]]`, 4, true, ""},
		{"[Num, [Str*]]", `[1]`, 2, false, ""},
		{"[Num, [Str*]]", `[1, [], 2]`, 4, false, ""},
		{"Null + {a: Bool}", `null`, 1, true, ""},
		{"Null + {a: Bool}", `{"a": false}`, 3, true, ""},
		{"Null + {a: Bool}", `true`, 1, false, ""},
		{"ε", `1`, 1, false, ""},
		{"Num", `1x`, 1, true, ""}, // one value consumed; what follows is the caller's
		{"Num", `tru`, 0, false, "invalid literal"},
		// Typed whole: a map, variants and a non-normal union admit
		// nothing.
		{"{*: Num}", `{"a": 1}`, 3, false, ""},
		{"variants(type){push: {type: Str}}", `{"type": "push"}`, 3, false, ""},
		{"{a: Num} + {b: Num}", `{"a": 1}`, 3, false, ""},
	} {
		ty := types.MustParse(c.typ)
		walked, size, _, _, err := walkDoc([]byte(c.doc), ty, true)
		switch {
		case c.err != "":
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("Walk(%s, %s): err %v, want one containing %q", c.doc, c.typ, err, c.err)
			}
		case err != nil || (walked == nil) != c.member || size != c.size:
			t.Errorf("Walk(%s, %s) = %v, size %d, err %v; want member %v, size %d", c.doc, c.typ, walked, size, err, c.member, c.size)
		}
	}
}

// TestWalkWithoutReferenceIsSimplify: a walk with no reference types
// every record whole, simplified under the policy, with the size and
// hash of its raw type, on every generator and under the paper's and
// the tuple strategy.
func TestWalkWithoutReferenceIsSimplify(t *testing.T) {
	for _, o := range []fusion.Options{{}, {Tuples: true}} {
		for _, name := range dataset.Names() {
			g, err := dataset.New(name)
			if err != nil {
				t.Fatal(err)
			}
			data := dataset.NDJSON(g, 40, 2)
			raw, err := InferAll(data)
			if err != nil {
				t.Fatal(err)
			}
			d := NewBytesDecoder(data)
			d.SetSimplifier(o)
			for i, r := range raw {
				walked, size, hash, err := d.Walk(nil, true)
				if err != nil || walked == nil {
					t.Fatalf("%s record %d: %v, %v", name, i, walked, err)
				}
				if want := o.Simplify(r); types.Compare(walked, want) != 0 || size != r.Size() || hash != types.Hash(r) {
					t.Fatalf("%s record %d: walk %s (size %d, hash %#x), want %s (size %d, hash %#x)", name, i, walked, size, hash, want, r.Size(), types.Hash(r))
				}
			}
			d.Release()
		}
	}
}

// TestWalkPredictedKeys walks objects whose member names the walk's
// prediction (jsontext.NextKeyIs) takes, misses or must never take
// against a reference: whitespace around ',' and ':', names out of
// order, names holding '"' or '\', an escape that spells a name, a
// name of invalid UTF-8 that the lexer decodes to U+FFFD, and repeated
// names. From a slice, and through a one-byte reader whose window never
// holds a whole name, the walk absorbs exactly the members, has the
// size and hash of Next's type, types a non-member as Next does, and
// fails as Next fails, with the same error at the same offset.
func TestWalkPredictedKeys(t *testing.T) {
	ab := types.MustParse("{a: Num, b: Str?, c: {d: Num}?}")
	quoted := types.MustRecord(types.Field{Key: `a"b`, Type: types.Num}, types.Field{Key: `a\b`, Type: types.Num})
	invalid := types.MustRecord(types.Field{Key: "\xff", Type: types.Num})
	for _, c := range []struct {
		ref    types.Type
		doc    string
		member bool
	}{
		{ab, `{"a":1}`, true},
		{ab, `{"a" : 1 ,  "b"	:"x" ,
 "c"
: {"d" :2}}`, true},
		{ab, `{"c":{"d":2},"b":"x","a":1}`, true},
		{ab, `{"a":1,"b":"x"}`, true},
		{ab, `{"a":1,"e":2}`, false},
		{ab, `{"a":1,"c":{"d":2,"e":3}}`, false},
		{ab, `{"a":1,"a":2}`, false},
		{ab, `{"b":"x","a":1,"b":"y"}`, false},
		{ab, `{"a":1,"c":{"d":2,"d":3}}`, false},
		{ab, `{"a":1 "b":"x"}`, false},
		{quoted, `{"a\"b":1,"a\\b":2}`, true},
		{quoted, `{"a\\b":1,"a\"b":2}`, true},
		{quoted, `{"a\\b":1,"a\\b":2}`, false},
		{invalid, "{\"\xff\":1}", false},
	} {
		next := NewBytesDecoder([]byte(c.doc))
		want, nerr := next.Next()
		next.Release()
		for _, d := range []*Decoder{
			NewBytesDecoder([]byte(c.doc)),
			NewDecoder(iotest.OneByteReader(strings.NewReader(c.doc)), jsontext.Options{}),
		} {
			d.SetSimplifier(fusion.Options{})
			walked, size, hash, err := d.Walk(c.ref, true)
			d.Release()
			switch {
			case nerr != nil || err != nil:
				if nerr == nil || err == nil || err.Error() != nerr.Error() {
					t.Errorf("Walk(%s, %q): err %v; Next err %v", c.ref, c.doc, err, nerr)
				}
			case (walked == nil) != c.member || size != want.Size() || hash != types.Hash(want):
				t.Errorf("Walk(%s, %q) = %v, size %d, hash %#x; want member %v, size %d, hash %#x", c.ref, c.doc, walked, size, hash, c.member, want.Size(), types.Hash(want))
			case walked != nil && !types.Equal(walked, want):
				t.Errorf("Walk(%s, %q) typed %s, Next %s", c.ref, c.doc, walked, want)
			}
		}
	}
}

// TestKeyTablesBounded walks every generator's records against their
// fused type, under the paper's and the tuple policy: however many
// records a decoder walks, its key tables hold at most one entry per
// field of the reference's tree, so each record node is compiled once
// per place it is met, not once per visit.
func TestKeyTablesBounded(t *testing.T) {
	for _, o := range []fusion.Options{{}, {Tuples: true}} {
		for _, name := range dataset.Names() {
			g, err := dataset.New(name)
			if err != nil {
				t.Fatal(err)
			}
			data := dataset.NDJSON(g, 300, 4)
			raw, err := InferAll(data)
			if err != nil {
				t.Fatal(err)
			}
			cover := types.Type(types.Empty)
			for _, r := range raw {
				cover = o.Fuse(cover, o.Simplify(r))
			}
			fields := 0
			types.Walk(cover, func(n types.Type) bool {
				if r, ok := n.(*types.Record); ok {
					fields += len(r.Fields())
				}
				return true
			})
			d := NewBytesDecoder(data)
			d.SetSimplifier(o)
			for range raw {
				if walked, _, _, err := d.Walk(cover, true); walked != nil || err != nil {
					t.Fatalf("%s: a record is not a member of the fused type: %v", name, err)
				}
			}
			if len(d.keys) == 0 || len(d.keys) > fields {
				t.Errorf("%s, tuples %v: %d key table entries after %d records, want 1 to %d", name, o.Tuples, len(d.keys), len(raw), fields)
			}
			d.Release()
		}
	}
}
