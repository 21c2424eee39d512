package types_test

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/infer"
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

// match runs a Matcher over doc and also reports whether it consumed
// exactly one value.
func match(m *types.Matcher, doc []byte, t types.Type) (size int, hash uint64, ok, exact bool) {
	lex := jsontext.AcquireLexerBytes(doc)
	defer lex.Release()
	lex.RawStrings(true)
	size, hash, ok = m.Match(lex, t)
	tok, err := lex.Next()
	return size, hash, ok, err == nil && tok.Kind == jsontext.TokEOF
}

// sameWithoutHash fails unless MatchSize over doc gives Match's verdict,
// size and end: the size-only walk is the hashing walk minus the hash.
func sameWithoutHash(t *testing.T, m *types.Matcher, doc []byte, ty types.Type) {
	t.Helper()
	want, _, wantOK, wantExact := match(m, doc, ty)
	lex := jsontext.AcquireLexerBytes(doc)
	defer lex.Release()
	lex.RawStrings(true)
	size, ok := m.MatchSize(lex, ty)
	tok, err := lex.Next()
	if exact := err == nil && tok.Kind == jsontext.TokEOF; ok != wantOK || size != want || (ok && exact != wantExact) {
		t.Fatalf("type %s, value %s: MatchSize %v, size %d, exact %v; Match %v, size %d, exact %v", ty, doc, ok, size, exact, wantOK, want, wantExact)
	}
}

// TestMatcherAgreesWithMember draws random normal types, witnesses of
// them and mutations of the witnesses, and checks the Matcher against
// Member on each: the same verdict, a member's size and structural hash
// equal to its inferred type's, whatever order the document lists its
// keys in, and a member consumed to its last byte. A repeated key makes
// any document a non-member. MatchSize gives Match's verdict and size
// on every document.
func TestMatcherAgreesWithMember(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	var m types.Matcher
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
		want := types.Member(v, ty)
		size, hash, got, exact := match(&m, doc, ty)
		if got != want {
			t.Fatalf("type %s, value %s: Matcher %v, Member %v", ty, doc, got, want)
		}
		sameWithoutHash(t, &m, doc, ty)
		if got {
			members++
			inferred := infer.Infer(v)
			if wantSize := inferred.Size(); size != wantSize || !exact {
				t.Fatalf("type %s, value %s: size %d (inferred %d), consumed exactly: %v", ty, doc, size, wantSize, exact)
			}
			if wantHash := types.Hash(inferred); hash != wantHash {
				t.Fatalf("type %s, value %s: hash %#x, want %#x (of %s)", ty, doc, hash, wantHash, inferred)
			}
		} else {
			nonMembers++
		}
		dup := r.Intn(value.Nodes(v))
		doc = appendDoc(nil, v, rev, &dup)
		if dup < 0 {
			repeats++
			if _, _, got, _ := match(&m, doc, ty); got {
				t.Fatalf("type %s: a repeated key matched: %s", ty, doc)
			}
			sameWithoutHash(t, &m, doc, ty)
		}
	}
	if members < 500 || nonMembers < 500 || repeats < 100 {
		t.Errorf("weak coverage: %d members, %d non-members, %d repeated keys", members, nonMembers, repeats)
	}
}

// TestMatcherCases pins the Matcher on hand-picked values: the types it
// declines to decide, malformed and truncated input, and sizes.
func TestMatcherCases(t *testing.T) {
	var m types.Matcher
	for _, c := range []struct {
		typ, doc string
		size     int
		ok       bool
	}{
		{"{a: Num, b: Str?}", `{"a": 1}`, 3, true},
		{"{a: Num, b: Str?}", `{"b": "x", "a": 1}`, 5, true},
		{"{a: Num, b: Str?}", `{"b": "x"}`, 0, false},       // mandatory a missing
		{"{a: Num, b: Str?}", `{"a": 1, "c": 2}`, 0, false}, // unknown key
		{"{a: Num, b: Str?}", `{"a": 1, "a": 1}`, 0, false}, // repeated key
		{"{a: Num, b: Str?}", `{"a": 1,}`, 0, false},        // trailing comma
		{"{a: Num, b: Str?}", `{"a": 1`, 0, false},          // truncated
		{"{a: Num, b: Str?}", `{"\u0061": 1}`, 3, true},     // escaped key
		{"[(Num + Str)*]", `[1, "x", 2]`, 4, true},
		{"[(Num + Str)*]", `[]`, 1, true},
		{"[(Num + Str)*]", `[1, null]`, 0, false},
		{"[(Num + Str)*]", `[1,]`, 0, false},
		{"[ε*]", `[]`, 1, true},
		{"[ε*]", `[1]`, 0, false},
		{"[Num, [Str*]]", `[1, ["a"]]`, 4, true},
		{"[Num, [Str*]]", `[1]`, 0, false},
		{"[Num, [Str*]]", `[1, [], 2]`, 0, false},
		{"Null + {a: Bool}", `null`, 1, true},
		{"Null + {a: Bool}", `{"a": false}`, 3, true},
		{"Null + {a: Bool}", `true`, 0, false},
		{"ε", `1`, 0, false},
		{"Num", `1x`, 1, true}, // one value consumed; what follows is the caller's
		{"Num", `tru`, 0, false},
		// Declined: a map, variants and a non-normal union match nothing.
		{"{*: Num}", `{"a": 1}`, 0, false},
		{"variants(type){push: {type: Str}}", `{"type": "push"}`, 0, false},
		{"{a: Num} + {b: Num}", `{"a": 1}`, 0, false},
	} {
		ty := types.MustParse(c.typ)
		lex := jsontext.AcquireLexerBytes([]byte(c.doc))
		lex.RawStrings(true)
		size, _, ok := m.Match(lex, ty)
		lex.Release()
		if ok != c.ok || (ok && size != c.size) {
			t.Errorf("Match(%s, %s) = %d, %v; want %d, %v", c.doc, c.typ, size, ok, c.size, c.ok)
		}
	}
}

// BenchmarkMatch matches each generator's records against their own
// fused type, the work absorption does for a record the running schema
// already covers: every record is a member, read once from the slice.
func BenchmarkMatch(b *testing.B) {
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			b.Fatal(err)
		}
		data := dataset.NDJSON(g, 1000, 1)
		ts, err := infer.InferAll(data)
		if err != nil {
			b.Fatal(err)
		}
		cover := fusion.FuseAll(ts)
		b.Run(name, func(b *testing.B) {
			var m types.Matcher
			lex := jsontext.AcquireLexerBytes(nil)
			defer lex.Release()
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lex.ResetBytes(data)
				lex.RawStrings(true)
				for range ts {
					if _, _, ok := m.Match(lex, cover); !ok {
						b.Fatalf("a %s record at offset %d is not a member of the fused type", name, lex.Offset())
					}
				}
			}
		})
	}
}
