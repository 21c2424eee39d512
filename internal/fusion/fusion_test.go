package fusion

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/infer"
	"repro/internal/types"
	"repro/internal/value"
)

func tp(t *testing.T, src string) types.Type {
	t.Helper()
	tt, err := types.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return tt
}

func TestFuseBasic(t *testing.T) {
	cases := []struct {
		t1, t2, want string
	}{
		{"Num", "Num", "Num"},
		{"Num", "Str", "Num + Str"},
		{"Str", "Num", "Num + Str"},
		{"Null", "Bool", "Null + Bool"},
		{"Num", "ε", "Num"},
		{"ε", "Num", "Num"},
		{"ε", "ε", "ε"},
		{"Num + Str", "Bool", "Bool + Num + Str"},
		{"Num + Str", "Str + Null", "Null + Num + Str"},
	}
	for _, c := range cases {
		got := Fuse(tp(t, c.t1), tp(t, c.t2))
		if got.String() != tp(t, c.want).String() {
			t.Errorf("Fuse(%s, %s) = %s, want %s", c.t1, c.t2, got, c.want)
		}
	}
}

func TestFuseSection2RecordExample(t *testing.T) {
	// T1 = {A: Str, B: Num}, T2 = {B: Bool, C: Str}
	// T12 = {A: Str?, B: Num + Bool, C: Str?}
	t1 := tp(t, "{A: Str, B: Num}")
	t2 := tp(t, "{B: Bool, C: Str}")
	t12 := Fuse(t1, t2)
	want := tp(t, "{A: Str?, B: Bool + Num, C: Str?}")
	if !types.Equal(t12, want) {
		t.Fatalf("T12 = %s, want %s", t12, want)
	}
	// Fusing T12 with T3 = {A: Null, B: Num}: optionality prevails over
	// the implicit total cardinality, so A stays optional.
	t3 := tp(t, "{A: Null, B: Num}")
	t123 := Fuse(t12, t3)
	want123 := tp(t, "{A: (Null + Str)?, B: Bool + Num, C: Str?}")
	if !types.Equal(t123, want123) {
		t.Fatalf("T123 = %s, want %s", t123, want123)
	}
}

func TestFuseSection2NestedUnionExample(t *testing.T) {
	// Fusing {l: Bool + Str + {A: Num}} with {l: {A: Str}, B: Num}
	// yields {l: Bool + Str + {A: Num + Str}, B: Num?}.
	t1 := tp(t, "{l: Bool + Str + {A: Num}}")
	t2 := tp(t, "{l: {A: Str}, B: Num}")
	got := Fuse(t1, t2)
	want := tp(t, "{l: Bool + Str + {A: Num + Str}, B: Num?}")
	if !types.Equal(got, want) {
		t.Fatalf("got %s, want %s", got, want)
	}
}

func TestCollapseSection5Example(t *testing.T) {
	// T = [Num, Bool, Num, {l1: Num, l2: Str}, {l1: Num, l2: Bool, l3: Str}]
	// collapse(T) = Num + Bool + {l1: Num, l2: Str + Bool, l3: Str?}
	tt := tp(t, "[Num, Bool, Num, {l1: Num, l2: Str}, {l1: Num, l2: Bool, l3: Str}]").(*types.Tuple)
	got := collapse(Options{}.Fuse, tt.Elems(), elemType)
	want := tp(t, "Bool + Num + {l1: Num, l2: Bool + Str, l3: Str?}")
	if !types.Equal(got, want) {
		t.Fatalf("collapse = %s, want %s", got, want)
	}
}

func TestCollapseEmptyTuple(t *testing.T) {
	if got := collapse(Options{}.Fuse, types.EmptyTuple.Elems(), elemType); !types.Equal(got, types.Empty) {
		t.Errorf("collapse([]) = %s, want ε", got)
	}
}

func TestFuseMixedContentArraysPositionInsensitive(t *testing.T) {
	// Section 2: [Str, Str, {E: Str, F: Num}] and the swapped
	// [{E: Str, F: Num}, Str, Str] must fuse to the same simplified type
	// [(Str + {E: Str, F: Num})*].
	a := tp(t, `[Str, Str, {E: Str, F: Num}]`)
	b := tp(t, `[{E: Str, F: Num}, Str, Str]`)
	want := tp(t, "[(Str + {E: Str, F: Num})*]")
	if got := Fuse(a, b); !types.Equal(got, want) {
		t.Errorf("Fuse = %s, want %s", got, want)
	}
	// And each with itself.
	if got := Fuse(a, a); !types.Equal(got, want) {
		t.Errorf("Fuse(a, a) = %s, want %s", got, want)
	}
}

func TestFuseArrayCombinations(t *testing.T) {
	cases := []struct {
		t1, t2, want string
	}{
		// AT + AT (line 4).
		{"[Num, Num]", "[Str]", "[(Num + Str)*]"},
		// SAT + AT and AT + SAT (lines 5, 6).
		{"[Num*]", "[Str]", "[(Num + Str)*]"},
		{"[Str]", "[Num*]", "[(Num + Str)*]"},
		// SAT + SAT (line 7).
		{"[Num*]", "[Str*]", "[(Num + Str)*]"},
		{"[Num*]", "[Num*]", "[Num*]"},
		// Empty arrays: [] simplifies to [ε*].
		{"[]", "[]", "[ε*]"},
		{"[]", "[Num]", "[Num*]"},
		{"[Num]", "[]", "[Num*]"},
		{"[ε*]", "[]", "[ε*]"},
		{"[ε*]", "[Num*]", "[Num*]"},
		// Nested arrays fuse their bodies recursively.
		{"[[Num]]", "[[Str]]", "[[(Num + Str)*]*]"},
		{"[[Num], [Str]]", "[]", "[[(Num + Str)*]*]"},
	}
	for _, c := range cases {
		got := Fuse(tp(t, c.t1), tp(t, c.t2))
		if !types.Equal(got, tp(t, c.want)) {
			t.Errorf("Fuse(%s, %s) = %s, want %s", c.t1, c.t2, got, c.want)
		}
	}
}

func TestFuseRecordWithArrayKinds(t *testing.T) {
	// Different kinds meet in a union. Per Figure 6 line 1, unmatched
	// (KUnmatch) addends pass through unchanged, so the tuple [Num] is
	// NOT simplified here: simplification happens only when two array
	// kinds actually meet in LFuse.
	got := Fuse(tp(t, "{a: Num}"), tp(t, "[Num]"))
	want := tp(t, "{a: Num} + [Num]")
	if !types.Equal(got, want) {
		t.Errorf("got %s, want %s", got, want)
	}
	// A union with both kinds fused member-wise.
	got2 := Fuse(got, tp(t, "{b: Str} + [Str]"))
	want2 := tp(t, "{a: Num?, b: Str?} + [(Num + Str)*]")
	if !types.Equal(got2, want2) {
		t.Errorf("got %s, want %s", got2, want2)
	}
}

func TestFuseOptionalityPropagation(t *testing.T) {
	cases := []struct {
		t1, t2, want string
	}{
		// min(1,1)=1, min(1,?)=?, min(?,?)=?.
		{"{a: Num}", "{a: Num}", "{a: Num}"},
		{"{a: Num}", "{a: Num?}", "{a: Num?}"},
		{"{a: Num?}", "{a: Num?}", "{a: Num?}"},
		{"{a: Num?}", "{b: Str}", "{a: Num?, b: Str?}"},
	}
	for _, c := range cases {
		got := Fuse(tp(t, c.t1), tp(t, c.t2))
		if !types.Equal(got, tp(t, c.want)) {
			t.Errorf("Fuse(%s, %s) = %s, want %s", c.t1, c.t2, got, c.want)
		}
	}
}

func TestLFusePanicsOnKindMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LFuse(Num, Str) did not panic")
		}
	}()
	LFuse(types.Num, types.Str)
}

func TestLFusePanicsOnUnion(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LFuse on a union did not panic")
		}
	}()
	LFuse(types.MustUnion(types.Num, types.Str), types.Num)
}

func TestSimplify(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"Num", "Num"},
		{"[]", "[ε*]"},
		{"[Num, Str]", "[(Num + Str)*]"},
		{"{a: [Num, Num]}", "{a: [Num*]}"},
		{"[[Num], [Str]]", "[[(Num + Str)*]*]"},
		{"{a: [Bool, {x: Num}, {y: Str}]}", "{a: [(Bool + {x: Num?, y: Str?})*]}"},
		{"[Num*]", "[Num*]"},
		{"Num + [Str, Str]", "Num + [Str*]"},
	}
	for _, c := range cases {
		got := Simplify(tp(t, c.in))
		if !types.Equal(got, tp(t, c.want)) {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestFuseAllFoldAndTreeAgree(t *testing.T) {
	ts := []types.Type{
		tp(t, "{a: Num}"),
		tp(t, "{a: Str, b: Bool}"),
		tp(t, "{b: Bool, c: [Num]}"),
		tp(t, "{c: [Str, Str]}"),
		tp(t, "Num"),
	}
	seq := FuseAll(ts)
	tree := FuseAllTree(ts)
	if !types.Equal(seq, tree) {
		t.Errorf("sequential %s != tree %s", seq, tree)
	}
	if !types.Equal(FuseAll(nil), types.Empty) {
		t.Error("FuseAll(nil) should be ε")
	}
	if !types.Equal(FuseAllTree(nil), types.Empty) {
		t.Error("FuseAllTree(nil) should be ε")
	}
	one := []types.Type{tp(t, "{x: Num}")}
	if !types.Equal(FuseAllTree(one), one[0]) {
		t.Error("FuseAllTree of singleton should be the element")
	}
}

// --- random generators for the theorem property tests ---

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// randomValue mirrors the generator used in the infer tests; fusing
// inferred types of random values exercises fusion over realistic
// (normal) types, including every array/record nesting pattern.
func randomValue(r *rng, depth int) value.Value {
	max := 6
	if depth <= 0 {
		max = 4
	}
	switch r.intn(max) {
	case 0:
		return value.Null{}
	case 1:
		return value.Bool(r.intn(2) == 0)
	case 2:
		return value.Num(float64(r.intn(50)))
	case 3:
		return value.Str(strings.Repeat("s", r.intn(3)))
	case 4:
		var fs []value.Field
		seen := map[string]bool{}
		for i := 0; i < r.intn(4); i++ {
			k := string(rune('a' + r.intn(5)))
			if seen[k] {
				continue
			}
			seen[k] = true
			fs = append(fs, value.Field{Key: k, Value: randomValue(r, depth-1)})
		}
		return value.MustRecord(fs...)
	default:
		var elems value.Array
		for i := 0; i < r.intn(4); i++ {
			elems = append(elems, randomValue(r, depth-1))
		}
		if elems == nil {
			elems = value.Array{}
		}
		return elems
	}
}

// randomNormalType produces a normal type the way the pipeline does: by
// inferring types for a few random values and fusing a random subset.
func randomNormalType(r *rng) types.Type {
	n := 1 + r.intn(3)
	acc := infer.Infer(randomValue(r, 3))
	for i := 1; i < n; i++ {
		acc = Fuse(acc, infer.Infer(randomValue(r, 3)))
	}
	return acc
}

func TestTheorem52Correctness(t *testing.T) {
	// Fuse(T1, T2) is a supertype of both inputs, checked with the sound
	// syntactic subtype relation.
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		t1 := randomNormalType(r)
		t2 := randomNormalType(r)
		t3 := Fuse(t1, t2)
		if !types.Subtype(t1, t3) {
			t.Logf("T1 = %s\nT3 = %s", t1, t3)
			return false
		}
		if !types.Subtype(t2, t3) {
			t.Logf("T2 = %s\nT3 = %s", t2, t3)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestTheorem52CorrectnessViaMembership(t *testing.T) {
	// The value-level corollary of Lemma 5.1 + Theorem 5.2: any value
	// whose inferred type participates in a fusion belongs to the result.
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		vs := make([]value.Value, 1+r.intn(5))
		ts := make([]types.Type, len(vs))
		for i := range vs {
			vs[i] = randomValue(r, 3)
			ts[i] = infer.Infer(vs[i])
		}
		fused := FuseAll(ts)
		for _, v := range vs {
			if !types.Member(v, fused) {
				t.Logf("v = %s\nfused = %s", value.JSON(v), fused)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestTheorem54Commutativity(t *testing.T) {
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		t1 := randomNormalType(r)
		t2 := randomNormalType(r)
		a := Fuse(t1, t2)
		b := Fuse(t2, t1)
		if !types.Equal(a, b) {
			t.Logf("T1 = %s\nT2 = %s\nT1+T2 = %s\nT2+T1 = %s", t1, t2, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestTheorem55Associativity(t *testing.T) {
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		t1 := randomNormalType(r)
		t2 := randomNormalType(r)
		t3 := randomNormalType(r)
		a := Fuse(Fuse(t1, t2), t3)
		b := Fuse(t1, Fuse(t2, t3))
		if !types.Equal(a, b) {
			t.Logf("T1 = %s\nT2 = %s\nT3 = %s\nleft = %s\nright = %s", t1, t2, t3, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestFusionPreservesNormalForm(t *testing.T) {
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		t1 := randomNormalType(r)
		t2 := randomNormalType(r)
		fused := Fuse(t1, t2)
		if !types.IsNormal(fused) {
			t.Logf("T1 = %s\nT2 = %s\nfused = %s", t1, t2, fused)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestFuseReductionOrderIrrelevant(t *testing.T) {
	// Any reduction order — sequential, tree, random splits — yields the
	// same type. This is exactly the property Spark's reduce relies on.
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		n := 2 + r.intn(8)
		ts := make([]types.Type, n)
		for i := range ts {
			ts[i] = infer.Infer(randomValue(r, 3))
		}
		want := FuseAll(ts)
		if !types.Equal(want, FuseAllTree(ts)) {
			return false
		}
		// Random binary reduction: repeatedly fuse two random elements.
		work := append([]types.Type(nil), ts...)
		for len(work) > 1 {
			i := r.intn(len(work))
			j := r.intn(len(work))
			if i == j {
				continue
			}
			if i > j {
				i, j = j, i
			}
			merged := Fuse(work[i], work[j])
			work[i] = merged
			work = append(work[:j], work[j+1:]...)
		}
		return types.Equal(want, work[0])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFuseIdempotentOnSimplifiedTypes(t *testing.T) {
	// Once every tuple inside a type has been simplified to a repeated
	// type, fusing the type with itself is the identity. (A fused type
	// can still contain tuples: KUnmatch addends pass through untouched,
	// so plain Fuse output is not necessarily a fixed point.)
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		tt := Simplify(Fuse(randomNormalType(r), randomNormalType(r)))
		return types.Equal(Fuse(tt, tt), tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFuseSuccinctness(t *testing.T) {
	// Fusing n structurally similar records stays near the size of a
	// single record instead of growing linearly.
	var ts []types.Type
	for i := 0; i < 100; i++ {
		fields := []value.Field{
			{Key: "id", Value: value.Num(float64(i))},
			{Key: "name", Value: value.Str("n")},
		}
		if i%3 == 0 {
			fields = append(fields, value.Field{Key: "opt", Value: value.Str("x")})
		}
		ts = append(ts, infer.Infer(value.MustRecord(fields...)))
	}
	fused := FuseAll(ts)
	want := tp(t, "{id: Num, name: Str, opt: Str?}")
	if !types.Equal(fused, want) {
		t.Errorf("fused = %s, want %s", fused, want)
	}
	if fused.Size() > 8 {
		t.Errorf("fused size %d is not succinct", fused.Size())
	}
}

// sameKindPair draws two non-union normal types of the same kind, the
// domain of LFuse.
func sameKindPair(r *rng) (types.Type, types.Type) {
	for {
		t1 := randomNormalType(r)
		t2 := randomNormalType(r)
		a1 := types.Addends(t1)
		a2 := types.Addends(t2)
		if len(a1) == 0 || len(a2) == 0 {
			continue
		}
		u1 := a1[r.intn(len(a1))]
		for _, u2 := range a2 {
			k1, _ := types.KindOf(u1)
			k2, _ := types.KindOf(u2)
			if k1 == k2 {
				return u1, u2
			}
		}
	}
}

func TestLemma53LFuseCorrectness(t *testing.T) {
	// Lemma 5.3: for non-union normal types of the same kind,
	// T1 <: LFuse(T1, T2) and T2 <: LFuse(T1, T2).
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		t1, t2 := sameKindPair(r)
		t3 := LFuse(t1, t2)
		if !types.Subtype(t1, t3) || !types.Subtype(t2, t3) {
			t.Logf("T1=%s T2=%s LFuse=%s", t1, t2, t3)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestTheorem54LFuseCommutativity(t *testing.T) {
	// Theorem 5.4 part 2: LFuse(T, U) = LFuse(U, T).
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		t1, t2 := sameKindPair(r)
		return types.Equal(LFuse(t1, t2), LFuse(t2, t1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestTheorem55LFuseAssociativity(t *testing.T) {
	// Theorem 5.5 part 2: LFuse(LFuse(T, U), V) = LFuse(T, LFuse(U, V))
	// for three non-union normal types of the same kind.
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		t1, t2 := sameKindPair(r)
		// Find a third addend of the same kind.
		k, _ := types.KindOf(t1)
		var t3 types.Type
		for t3 == nil {
			for _, u := range types.Addends(randomNormalType(r)) {
				if uk, _ := types.KindOf(u); uk == k {
					t3 = u
					break
				}
			}
		}
		left := LFuse(LFuse(t1, t2), t3)
		right := LFuse(t1, LFuse(t2, t3))
		if !types.Equal(left, right) {
			t.Logf("T=%s U=%s V=%s left=%s right=%s", t1, t2, t3, left, right)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
