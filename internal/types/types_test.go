package types

import (
	"strings"
	"testing"
	"testing/quick"
)

// Shorthand constructors used across the package tests.
func rec(fields ...Field) *Record { return MustRecord(fields...) }
func fld(k string, t Type) Field  { return Field{Key: k, Type: t} }
func opt(k string, t Type) Field  { return Field{Key: k, Type: t, Optional: true} }
func tup(elems ...Type) *Tuple    { return MustTuple(elems...) }
func rep(t Type) *Repeated        { return MustRepeated(t) }
func uni(ts ...Type) Type         { return MustUnion(ts...) }

func TestKindOf(t *testing.T) {
	cases := []struct {
		t    Type
		want Kind
		ok   bool
	}{
		{Null, KindNull, true},
		{Bool, KindBool, true},
		{Num, KindNum, true},
		{Str, KindStr, true},
		{rec(), KindRecord, true},
		{tup(), KindArray, true},
		{tup(Num), KindArray, true},
		{rep(Num), KindArray, true},
		{Empty, 0, false},
		{uni(Num, Str), 0, false},
	}
	for _, c := range cases {
		got, ok := KindOf(c.t)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("KindOf(%s) = %v,%v want %v,%v", c.t, got, ok, c.want, c.ok)
		}
	}
}

func TestKindCodesMatchPaper(t *testing.T) {
	// kind(null)=0 kind(bool)=1 kind(num)=2 kind(str)=3 kind(rt)=4
	// kind(at)=kind(sat)=5.
	if KindNull != 0 || KindBool != 1 || KindNum != 2 || KindStr != 3 || KindRecord != 4 || KindArray != 5 {
		t.Fatal("kind codes diverge from the paper")
	}
	kt, _ := KindOf(tup(Num))
	kr, _ := KindOf(rep(Num))
	if kt != KindArray || kr != KindArray {
		t.Fatal("tuple and repeated array types must share the array kind")
	}
}

func TestNewRecordRejectsDuplicatesAndNil(t *testing.T) {
	if _, err := NewRecord(fld("a", Num), fld("a", Str)); err == nil {
		t.Error("duplicate keys accepted")
	}
	if _, err := NewRecord(Field{Key: "a"}); err == nil {
		t.Error("nil field type accepted")
	}
}

// TestNewRecordSortedOwnsAndChecks: NewRecordSorted keeps the slice it
// is given (no copy), and rejects exactly what NewRecord would have to
// sort or refuse: out-of-order and duplicate keys, and nil field types.
func TestNewRecordSortedOwnsAndChecks(t *testing.T) {
	fs := []Field{fld("a", Num), opt("b", Str)}
	r, err := NewRecordSorted(fs)
	if err != nil {
		t.Fatal(err)
	}
	if &r.Fields()[0] != &fs[0] {
		t.Error("NewRecordSorted copied its input")
	}
	if !Equal(r, rec(opt("b", Str), fld("a", Num))) {
		t.Errorf("got %s", r)
	}
	for _, bad := range [][]Field{
		{fld("b", Num), fld("a", Str)},
		{fld("a", Num), fld("a", Str)},
		{fld("a", Num), {Key: "b"}},
	} {
		if _, err := NewRecordSorted(bad); err == nil {
			t.Errorf("NewRecordSorted accepted %v", bad)
		}
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = NewRecordSorted(fs) }); n != 1 {
		t.Errorf("NewRecordSorted allocates %.0f times, want 1 (the record)", n)
	}
}

func TestRecordCanonicalOrder(t *testing.T) {
	a := rec(fld("b", Num), fld("a", Str))
	b := rec(fld("a", Str), fld("b", Num))
	if !Equal(a, b) {
		t.Error("records differing only in field order are not Equal")
	}
	if got := a.Keys(); got[0] != "a" || got[1] != "b" {
		t.Errorf("fields not sorted: %v", got)
	}
}

func TestRecordGet(t *testing.T) {
	r := rec(fld("x", Num), opt("y", Str))
	f, ok := r.Get("y")
	if !ok || !f.Optional || !Equal(f.Type, Str) {
		t.Errorf("Get(y) = %+v, %v", f, ok)
	}
	if _, ok := r.Get("z"); ok {
		t.Error("Get(z) should miss")
	}
	if r.Len() != 2 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestNewTupleRejectsNil(t *testing.T) {
	if _, err := NewTuple(Num, nil); err == nil {
		t.Error("nil tuple element accepted")
	}
}

func TestNewRepeatedRejectsNil(t *testing.T) {
	if _, err := NewRepeated(nil); err == nil {
		t.Error("nil repeated element accepted")
	}
}

func TestNewUnionFlattensAndCanonicalizes(t *testing.T) {
	u := uni(Str, uni(Num, Bool), Num)
	un, ok := u.(*Union)
	if !ok {
		t.Fatalf("expected a union, got %T", u)
	}
	if un.Len() != 3 {
		t.Fatalf("want 3 deduplicated alternatives, got %d (%s)", un.Len(), u)
	}
	// Canonical order sorts basics by kind: Bool < Num < Str.
	if !Equal(un.Alts()[0], Bool) || !Equal(un.Alts()[1], Num) || !Equal(un.Alts()[2], Str) {
		t.Errorf("alternatives not canonical: %s", u)
	}
}

func TestNewUnionDropsEmptyAndCollapses(t *testing.T) {
	if got := uni(); !Equal(got, Empty) {
		t.Errorf("empty union = %s, want ε", got)
	}
	if got := uni(Num); !Equal(got, Num) {
		t.Errorf("singleton union = %s, want Num", got)
	}
	if got := uni(Empty, Num, Empty); !Equal(got, Num) {
		t.Errorf("union with ε = %s, want Num", got)
	}
	if got := uni(Num, Num, Num); !Equal(got, Num) {
		t.Errorf("duplicate union = %s, want Num", got)
	}
}

// TestNewUnionSingleAlternativeAllocatesNothing: a union of one
// alternative (with or without ε around it) is that alternative, built
// without allocating.
func TestNewUnionSingleAlternativeAllocatesNothing(t *testing.T) {
	r := rec(fld("a", Num))
	if got := uni(Empty, r, Empty); got != Type(r) {
		t.Errorf("union of one record = %s, not the record itself", got)
	}
	if n := testing.AllocsPerRun(20, func() { _, _ = NewUnion(Empty, r) }); n != 0 {
		t.Errorf("NewUnion of one alternative allocates %.0f times, want 0", n)
	}
}

func TestNewUnionNilError(t *testing.T) {
	if _, err := NewUnion(Num, nil); err == nil {
		t.Error("nil union alternative accepted")
	}
}

func TestUnionOrderIrrelevant(t *testing.T) {
	a := uni(Str, rec(fld("a", Num)), Num)
	b := uni(Num, Str, rec(fld("a", Num)))
	if !Equal(a, b) {
		t.Errorf("union order matters: %s vs %s", a, b)
	}
}

func TestSize(t *testing.T) {
	cases := []struct {
		t    Type
		want int
	}{
		{Null, 1},
		{Empty, 1},
		{rec(), 1},
		{tup(), 1},
		{rec(fld("a", Num)), 3},                // record + field + Num
		{rec(fld("a", Num), opt("b", Str)), 5}, // record + 2*(field+basic)
		{tup(Num, Str), 3},                     // array + 2 basics
		{rep(Num), 2},                          // star + Num
		{uni(Num, Str), 3},                     // 1 '+' node + 2 basics
		{uni(Num, Str, Bool), 5},               // 2 '+' nodes + 3 basics
		{rec(fld("a", uni(Num, rep(Str)))), 6}, // rec + field + '+' + Num + star + Str
	}
	for _, c := range cases {
		if got := c.t.Size(); got != c.want {
			t.Errorf("Size(%s) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestSizeNested(t *testing.T) {
	// {a: (Num + [Str*])} = record(1) + field(1) + union(+:1) + Num(1) + star(1) + Str(1) = 6.
	tt := rec(fld("a", uni(Num, rep(Str))))
	if got := tt.Size(); got != 6 {
		t.Errorf("Size = %d, want 6", got)
	}
}

func TestCompareTotalOrder(t *testing.T) {
	seq := []Type{
		Empty,
		Null, Bool, Num, Str,
		rec(), rec(fld("a", Num)), rec(fld("a", Num), fld("b", Num)), rec(fld("b", Num)),
		tup(), tup(Num), tup(Num, Num), tup(Str),
		rep(Num), rep(Str),
		uni(Null, Num), uni(Num, Str), uni(Num, Str, rec(fld("a", Num))),
	}
	for i := range seq {
		for j := range seq {
			got := Compare(seq[i], seq[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%s, %s) = %d, want < 0", seq[i], seq[j], got)
			case i > j && got <= 0:
				t.Errorf("Compare(%s, %s) = %d, want > 0", seq[i], seq[j], got)
			case i == j && got != 0:
				t.Errorf("Compare(%s, itself) = %d", seq[i], got)
			}
		}
	}
}

func TestCompareOptionalityOrdersFields(t *testing.T) {
	a := rec(fld("a", Num))
	b := rec(opt("a", Num))
	if Compare(a, b) >= 0 || Compare(b, a) <= 0 {
		t.Error("mandatory field should order before optional")
	}
	if Equal(a, b) {
		t.Error("optionality must distinguish records")
	}
}

func TestAddends(t *testing.T) {
	if got := Addends(Empty); len(got) != 0 {
		t.Errorf("Addends(ε) = %v", got)
	}
	if got := Addends(Num); len(got) != 1 || !Equal(got[0], Num) {
		t.Errorf("Addends(Num) = %v", got)
	}
	u := uni(Num, Str, rec())
	if got := Addends(u); len(got) != 3 {
		t.Errorf("Addends(union) = %v", got)
	}
}

// TestSettled: the constructors' settled flag marks exactly the types
// with no tuple, no variants and only normal unions, at any depth.
func TestSettled(t *testing.T) {
	for _, c := range []struct {
		src  string
		want bool
	}{
		{"Num", true},
		{"ε", true},
		{"[ε*]", true},
		{"{a: Num, b: [Str*]?}", true},
		{"Null + Str + {a: [(Num + {b: Bool})*]}", true},
		{"{*: Num + Str}", true},
		{"[]", false},
		{"[Num, Str]", false},
		{"{a: {b: [Num]}}", false},
		{"[{a: Num} + {b: Str}*]", false},
		{"Num + [Str] + Null", false},
		{"{*: [Num]}", false},
		{"variants(type){push: {type: Str}}", false},
		{"{a: variants(type){push: {type: Str}}}", false},
	} {
		ty := MustParse(c.src)
		if got := Settled(ty); got != c.want {
			t.Errorf("Settled(%s) = %v, want %v", c.src, got, c.want)
		}
	}
}

func TestIsNormal(t *testing.T) {
	cases := []struct {
		t    Type
		want bool
	}{
		{Num, true},
		{Empty, true},
		{uni(Num, Str), true},
		{uni(Num, Str, rec(fld("a", Num)), rep(Str)), true},
		// Two array-kind alternatives: not normal.
		{&Union{alts: []Type{tup(Num), rep(Str)}}, false},
		// Two records: not normal.
		{&Union{alts: []Type{rec(fld("a", Num)), rec(fld("b", Num))}}, false},
		// Non-normal nested inside a record field.
		{rec(fld("a", &Union{alts: []Type{rec(), rec(fld("x", Num))}})), false},
		{rec(fld("a", uni(Num, Str))), true},
		{tup(&Union{alts: []Type{tup(), rep(Num)}}), false},
		{rep(&Union{alts: []Type{rec(), rec(fld("x", Num))}}), false},
	}
	for _, c := range cases {
		if got := IsNormal(c.t); got != c.want {
			t.Errorf("IsNormal(%s) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestWalk(t *testing.T) {
	tt := rec(fld("a", uni(Num, rep(Str))), fld("b", tup(Bool)))
	var visited []string
	Walk(tt, func(t Type) bool {
		visited = append(visited, t.String())
		return true
	})
	// record, union, Num, [Str*], Str, tuple, Bool = 7 visits.
	if len(visited) != 7 {
		t.Errorf("Walk visited %d nodes (%v), want 7", len(visited), visited)
	}
	// Pruned walk: don't descend into the union.
	count := 0
	Walk(tt, func(t Type) bool {
		count++
		_, isUnion := t.(*Union)
		return !isUnion
	})
	if count != 4 { // record, union, tuple, Bool
		t.Errorf("pruned Walk visited %d nodes, want 4", count)
	}
}

// --- random type generator shared by property tests in this package ---

type typeRand struct{ s uint64 }

func (r *typeRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *typeRand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *typeRand) key() string {
	keys := []string{"a", "b", "c", "id", "name", "x-y", "with space", "0digit", "ε", ""}
	return keys[r.intn(len(keys))]
}

// randomType builds a bounded random canonical type. It may be non-normal
// (unions constructed from arbitrary alternatives), which is fine for
// printer/parser/order tests; fusion property tests build their types via
// inference, which always yields normal types.
func randomType(r *typeRand, depth int) Type {
	max := 8
	if depth <= 0 {
		max = 4
	}
	switch r.intn(max) {
	case 0:
		return Null
	case 1:
		return Bool
	case 2:
		return Num
	case 3:
		return Str
	case 4:
		n := r.intn(4)
		var fs []Field
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			k := r.key()
			if seen[k] {
				continue
			}
			seen[k] = true
			fs = append(fs, Field{Key: k, Type: randomType(r, depth-1), Optional: r.intn(2) == 0})
		}
		return rec(fs...)
	case 5:
		n := r.intn(3)
		es := make([]Type, n)
		for i := range es {
			es[i] = randomType(r, depth-1)
		}
		return tup(es...)
	case 6:
		return rep(randomType(r, depth-1))
	default:
		n := 2 + r.intn(2)
		as := make([]Type, n)
		for i := range as {
			as[i] = randomType(r, depth-1)
		}
		return uni(as...)
	}
}

func TestPropertyCompareConsistency(t *testing.T) {
	f := func(seed1, seed2 uint64) bool {
		r1 := &typeRand{s: seed1 | 1}
		r2 := &typeRand{s: seed2 | 1}
		a := randomType(r1, 3)
		b := randomType(r2, 3)
		if Equal(a, b) != (Compare(a, b) == 0) {
			return false
		}
		return sign(Compare(a, b)) == -sign(Compare(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertySizePositive(t *testing.T) {
	f := func(seed uint64) bool {
		r := &typeRand{s: seed | 1}
		return randomType(r, 4).Size() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}

func TestStringContains(t *testing.T) {
	tt := rec(fld("a", Num), opt("b", uni(Str, Null)))
	s := tt.String()
	for _, want := range []string{"a: Num", "b: (Null + Str)?"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

func TestHashConsistentWithEqual(t *testing.T) {
	f := func(seed1, seed2 uint64) bool {
		r1 := &typeRand{s: seed1 | 1}
		r2 := &typeRand{s: seed2 | 1}
		a := randomType(r1, 4)
		b := randomType(r2, 4)
		if Equal(a, b) && Hash(a) != Hash(b) {
			return false
		}
		// Hash must be deterministic.
		return Hash(a) == Hash(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestHashDistinguishes(t *testing.T) {
	// Types that are nearly identical must hash apart; collisions are
	// possible in principle but these structured cases must not collide.
	cases := []Type{
		Null, Bool, Num, Str, Empty,
		rec(), rec(fld("a", Num)), rec(opt("a", Num)), rec(fld("b", Num)),
		rec(fld("a", Str)),
		tup(), tup(Num), tup(Num, Num),
		rep(Num), rep(Str), MustMap(Num), MustMap(Str),
		uni(Num, Str), uni(Num, Bool),
		rec(fld("ab", Num), fld("c", Num)), rec(fld("a", Num), fld("bc", Num)),
	}
	seen := map[uint64]Type{}
	for _, tt := range cases {
		h := Hash(tt)
		if prev, ok := seen[h]; ok {
			t.Errorf("collision: %s and %s both hash to %d", prev, tt, h)
		}
		seen[h] = tt
	}
}
