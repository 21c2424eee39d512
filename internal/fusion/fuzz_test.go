package fusion

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/infer"
	"repro/internal/types"
)

// FuzzFuseLaws parses two or three types (c may be empty), simplifies
// them under each policy and checks, in codec bytes, that Fuse is
// commutative and associative on them and that Simplify, Fuse and
// Finalize equal the rebuild-everything oracle — on the raw parsed
// types too, which may hold tuples and non-normal unions, each also
// fused with itself — and that fusing a witness of the normal fusion
// of the first two, under the paper's or the tuple policy, leaves
// that fusion unchanged. A settled type fused with itself is returned
// as is, with no allocation (the fast path).
func FuzzFuseLaws(f *testing.F) {
	seeds := [][3]string{
		{"{a: Num, b: Str}", "{b: Bool, c: Str}", "{a: Null, b: Num}"},
		{"{l: Bool + Str + {A: Num}}", "{l: {A: Str}, B: Num}", ""},
		{"[Num, Bool, Num, {l1: Num, l2: Str}]", "[Str*]", "[]"},
		{"{a: Num?}", "{}", "{a: Num}"},
		{"Num + Str", "Str + Null", "ε"},
		{"{a: Num} + {b: Str}", "[Num] + [Str*]", "{x: [Num, Str]}"},
		{"{*: Num}", "{a: Str, b: Num}", "{*: Bool}"},
		{"variants(type){push: {type: Str, a: Num}}", "variants(type){fork: {type: Str, b: Str}}", "{c: Num}"},
		{"wrapper{delete: {delete: {id: Num}}}", "{id: Num, text: Str}", "collapsed{*: {id: Num}}"},
		{"[[Num, Num], [Num, Num]]", "[[Num, Str]]", "[Num, Num]"},
		// Tuples that collapse: records with distinct keys, whose fusion
		// grows at every step of the fold, and elements of every kind.
		{distinctKeyTuple(0, 5), distinctKeyTuple(5, 17), distinctKeyTuple(3, 40)},
		{"[Num, Str, {a: Num}, [Num, Str], Null, Bool, {b: [Null]}, [], {a: Str}]", "[Bool, {c: Num}, [Str*], Num, {a: Num?}]", "[Null, Str]"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1], s[2])
	}
	f.Fuzz(func(t *testing.T, a, b, c string) {
		raw := make([]types.Type, 0, 3)
		for _, src := range []string{a, b, c} {
			if src == "" && len(raw) == 2 {
				break
			}
			ty, err := types.Parse(src)
			if err != nil {
				return
			}
			raw = append(raw, ty)
		}
		for _, p := range kernelPolicies {
			orc := oracle{o: p.o}
			ts := make([]types.Type, len(raw))
			for i, r := range raw {
				ts[i] = p.o.Simplify(r)
				requireSameBytes(t, p.name+" Simplify", ts[i], orc.simplify(r))
				requireSameBytes(t, p.name+" Finalize", p.o.Finalize(r), orc.finalize(r))
			}
			x, y := ts[0], ts[1]
			xy := p.o.Fuse(x, y)
			requireSameBytes(t, p.name+" commutativity", xy, p.o.Fuse(y, x))
			requireSameBytes(t, p.name+" Fuse", xy, orc.fuse(x, y))
			requireSameBytes(t, p.name+" Fuse of raw types", p.o.Fuse(raw[0], raw[1]), orc.fuse(raw[0], raw[1]))
			requireSameBytes(t, p.name+" Fuse of a raw type with itself", p.o.Fuse(raw[0], raw[0]), orc.fuse(raw[0], raw[0]))
			for _, x := range append(ts, xy) {
				if !types.Settled(x) {
					continue
				}
				if p.o.Fuse(x, x) != x {
					t.Fatalf("%s: Fuse(x, x) rebuilt the settled %s", p.name, x)
				}
				if n := testing.AllocsPerRun(2, func() { p.o.Fuse(x, x) }); n != 0 {
					t.Fatalf("%s: Fuse(x, x) of the settled %s allocates %.0f times", p.name, x, n)
				}
			}
			requireSameBytes(t, p.name+" Finalize of fusion", p.o.Finalize(xy), orc.finalize(xy))
			if len(ts) == 3 {
				z := ts[2]
				requireSameBytes(t, p.name+" associativity", p.o.Fuse(xy, z), p.o.Fuse(x, p.o.Fuse(y, z)))
			}
		}
		// The membership lemma absorption rests on: under the paper's
		// and the tuple policy, a witness v of a normal fused type F
		// teaches the fold nothing, Fuse(F, Simplify(Infer(v))) = F
		// under the same policy. Variants, which only the tagged
		// policy infers, are outside it: their catch-all admits
		// records that fusion then routes.
		for _, p := range kernelPolicies[:2] {
			o := p.o
			fused := o.Fuse(o.Simplify(raw[0]), o.Simplify(raw[1]))
			if !types.IsNormal(fused) || hasVariants(fused) {
				continue
			}
			r := rand.New(rand.NewSource(int64(len(a) + 31*len(b))))
			for i := 0; i < 4; i++ {
				if v, ok := types.Witness(fused, r); ok {
					requireSameBytes(t, p.name+" membership lemma", o.Fuse(fused, o.Simplify(infer.Infer(v))), fused)
				}
			}
		}
	})
}

// distinctKeyTuple renders the tuple of n one-field records {k<i>: Num},
// keys from k<lo> on, as the parser reads it.
func distinctKeyTuple(lo, n int) string {
	elems := make([]string, n)
	for i := range elems {
		elems[i] = fmt.Sprintf("{k%d: Num}", lo+i)
	}
	return "[" + strings.Join(elems, ", ") + "]"
}
