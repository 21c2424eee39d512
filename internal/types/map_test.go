package types

import (
	"math/rand"
	"testing"

	"repro/internal/value"
)

func mp(elem Type) *Map { return MustMap(elem) }

func TestMapConstructor(t *testing.T) {
	if _, err := NewMap(nil); err == nil {
		t.Error("NewMap(nil) accepted")
	}
	m := mp(Num)
	if !Equal(m.Elem(), Num) {
		t.Errorf("Elem = %s", m.Elem())
	}
	k, ok := KindOf(m)
	if !ok || k != KindRecord {
		t.Errorf("KindOf = %v, %v (maps share the record kind)", k, ok)
	}
}

func TestMapPrintParseRoundTrip(t *testing.T) {
	cases := []string{
		"{*: Num}",
		"{*: Num + Str}",
		"{*: {language: Str, value: Str}}",
		"{*: [{a: Num?}*]}",
		"{a: {*: Num}, b: Str}",
		"{*: {*: Bool}}",
		"Num + {*: Str}",
	}
	for _, src := range cases {
		tt, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		if got := tt.String(); got != src {
			t.Errorf("String = %q, want %q", got, src)
		}
		back, err := Parse(Indent(tt))
		if err != nil || !Equal(tt, back) {
			t.Errorf("Indent round trip failed for %q: %v", src, err)
		}
	}
}

func TestMapParseErrors(t *testing.T) {
	for _, src := range []string{"{*}", "{*: }", "{*: Num", "{* Num}", "{*: Num, a: Str}"} {
		if got, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) accepted as %s", src, got)
		}
	}
}

func TestMapSize(t *testing.T) {
	if m := mp(MustParse("{a: Num}")); m.Size() != 2+3 {
		t.Errorf("Size = %d", m.Size())
	}
}

func TestMapCompare(t *testing.T) {
	seq := []Type{
		rec(fld("a", Num)), // records before maps
		mp(Num), mp(Str),
		tup(Num), // tuples after maps
	}
	for i := range seq {
		for j := range seq {
			got := Compare(seq[i], seq[j])
			if (i < j && got >= 0) || (i > j && got <= 0) || (i == j && got != 0) {
				t.Errorf("Compare(%s, %s) = %d", seq[i], seq[j], got)
			}
		}
	}
}

func TestMapMembership(t *testing.T) {
	m := mp(MustParse("Num + Str"))
	yes := []value.Value{
		value.MustRecord(),
		value.Obj("anything", value.Num(1)),
		value.Obj("x", value.Num(1), "y", value.Str("s"), "z", value.Num(2)),
	}
	no := []value.Value{
		value.Obj("x", value.Bool(true)),
		value.Obj("ok", value.Num(1), "bad", value.Null{}),
		value.Num(3),
		value.Arr(value.Num(1)),
	}
	for _, v := range yes {
		if !Member(v, m) {
			t.Errorf("%s should belong to %s", value.JSON(v), m)
		}
	}
	for _, v := range no {
		if Member(v, m) {
			t.Errorf("%s should NOT belong to %s", value.JSON(v), m)
		}
	}
}

func TestMapSubtype(t *testing.T) {
	cases := []struct {
		t, u string
		want bool
	}{
		{"{a: Num, b: Num}", "{*: Num}", true},
		{"{a: Num, b: Str}", "{*: Num}", false},
		{"{a: Num, b: Str}", "{*: Num + Str}", true},
		{"{a: Num?}", "{*: Num}", true},
		{"{}", "{*: Num}", true},
		{"{*: Num}", "{*: Num}", true},
		{"{*: Num}", "{*: Num + Str}", true},
		{"{*: Num + Str}", "{*: Num}", false},
		{"{*: Num}", "{a: Num}", false},
		{"{*: Num}", "[Num*]", false},
		{"ε", "{*: Num}", true},
		{"{*: Num}", "{*: Num} + Str", true},
	}
	for _, c := range cases {
		if got := Subtype(MustParse(c.t), MustParse(c.u)); got != c.want {
			t.Errorf("Subtype(%s, %s) = %v, want %v", c.t, c.u, got, c.want)
		}
	}
}

func TestMapCodecRoundTrip(t *testing.T) {
	tt := MustParse("{claims: {*: [{rank: Str}*]}, id: Str}")
	data, err := MarshalJSON(tt)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalJSON(data)
	if err != nil || !Equal(tt, back) {
		t.Fatalf("codec round trip: %v (%s)", err, back)
	}
}

func TestMapWitness(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := mp(MustParse("{language: Str}"))
	for i := 0; i < 20; i++ {
		v, ok := Witness(m, r)
		if !ok || !Member(v, m) {
			t.Fatalf("witness %v not a member", v)
		}
	}
	// Uninhabited element: only the empty record.
	v, ok := Witness(mp(Empty), r)
	if !ok {
		t.Fatal("no witness for {*: ε}")
	}
	if v.(*value.Record).Len() != 0 {
		t.Errorf("witness of {*: ε} = %s", value.JSON(v))
	}
}

func TestMapIsNormalAndWalk(t *testing.T) {
	tt := MustParse("{*: Num + [Str*]}")
	if !IsNormal(tt) {
		t.Error("map type should be normal")
	}
	count := 0
	Walk(tt, func(Type) bool { count++; return true })
	if count != 5 { // map, union, Num, [Str*], Str
		t.Errorf("Walk visited %d nodes", count)
	}
	// A non-normal elem propagates.
	bad := mp(&Union{alts: []Type{rec(), rec(fld("a", Num))}})
	if IsNormal(bad) {
		t.Error("map with non-normal element reported normal")
	}
}
