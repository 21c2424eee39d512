package enrich

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/types"
	"repro/internal/value"
)

// profileSet is the configuration InferProfile runs with by default.
func profileSet(t testing.TB) *Set {
	t.Helper()
	set, err := ParseSet([]string{ProfileMonoids})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// observe feeds v's events into l in the order the decoder fires them.
func observe(l *Lattice, v value.Value) {
	switch vv := v.(type) {
	case value.Null:
		l.Null()
	case value.Bool:
		l.Bool(bool(vv))
	case value.Num:
		l.Num(float64(vv))
	case value.Str:
		l.Str(string(vv))
	case *value.Record:
		l.BeginObject()
		for _, f := range vv.Fields() {
			l.Key(f.Key)
			observe(l, f.Value)
		}
		l.EndObject()
	case value.Array:
		l.BeginArray()
		for _, e := range vv {
			observe(l, e)
		}
		l.EndArray(len(vv))
	}
}

func profileOf(t testing.TB, vs ...value.Value) *Lattice {
	t.Helper()
	l := profileSet(t).NewLattice()
	for _, v := range vs {
		observe(l, v)
	}
	return l
}

func render(t testing.TB, l *Lattice) string {
	t.Helper()
	out, err := l.RenderProfile()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestEmptyProfile(t *testing.T) {
	l := profileOf(t)
	if got := render(t, l); got != "ε (empty profile)\n" {
		t.Errorf("RenderProfile = %q", got)
	}
	if l.Values() != 0 {
		t.Errorf("Values = %d", l.Values())
	}
}

func TestScalarStats(t *testing.T) {
	l := profileOf(t, value.Num(3), value.Num(10), value.Num(-1), value.Bool(true), value.Bool(false))
	want := "profile of 5 values\nBool ⟨40%⟩ ⟨50% true⟩ + Num ⟨60%⟩ ⟨-1..10, mean 4⟩\n"
	if got := render(t, l); got != want {
		t.Errorf("RenderProfile = %q, want %q", got, want)
	}
	c := l.root.states[l.set.index("counts")].(*counts)
	if c.Nums != 3 || c.Bools != 2 || c.Trues != 1 || c.sumRat().RatString() != "12" {
		t.Errorf("counts = %+v, sum %s", c.tally, c.sumRat().RatString())
	}
}

func TestStringStats(t *testing.T) {
	// Lengths are in bytes: "é" is two.
	l := profileOf(t, value.Str("ab"), value.Str(""), value.Str("abcdé"))
	c := l.root.states[l.set.index("counts")].(*counts)
	if c.StrMin != 0 || c.StrMax != 6 || c.StrSum != 8 {
		t.Errorf("str stats = %+v", c.tally)
	}
	if got := render(t, l); !strings.Contains(got, "Str ⟨len 0..6⟩") {
		t.Errorf("RenderProfile = %q", got)
	}
}

func TestRecordFieldPresence(t *testing.T) {
	l := profileOf(t,
		value.Obj("a", value.Num(1)),
		value.Obj("a", value.Num(2), "b", value.Str("x")),
		value.Obj("a", value.Num(3), "b", value.Str("y")),
	)
	out := render(t, l)
	for _, want := range []string{`"a": Num ⟨1..3, mean 2⟩`, `"b"? ⟨67%⟩: Str`} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderProfile missing %q:\n%s", want, out)
		}
	}
}

func TestArrayStats(t *testing.T) {
	l := profileOf(t,
		value.Arr(value.Num(1), value.Num(2)),
		value.Arr(),
		value.Arr(value.Str("s"), value.Num(3), value.Num(4)),
	)
	ln := l.root.states[l.set.index("lengths")].(*lengths)
	if ln.Min != 0 || ln.Max != 3 || ln.Sum != 5 {
		t.Errorf("array stats = %+v", ln)
	}
	want := "[ ⟨0..3 items⟩ Num ⟨80%⟩ ⟨1..4, mean 2.5⟩ + Str ⟨20%⟩ ⟨len 1..1⟩*]"
	if got := render(t, l); !strings.Contains(got, want) {
		t.Errorf("RenderProfile = %q, want %q", got, want)
	}
}

func TestAllEmptyArrays(t *testing.T) {
	if got := render(t, profileOf(t, value.Arr(), value.Arr())); !strings.Contains(got, "[ ⟨0..0 items⟩ ε*]") {
		t.Errorf("RenderProfile = %q", got)
	}
}

func TestMixedKindsAtOnePosition(t *testing.T) {
	l := profileOf(t,
		value.Obj("x", value.Num(1)),
		value.Obj("x", value.Str("one")),
		value.Obj("x", value.Null{}),
	)
	want := `"x": Null ⟨33%⟩ + Num ⟨33%⟩ ⟨1..1, mean 1⟩ + Str ⟨33%⟩ ⟨len 3..3⟩`
	if got := render(t, l); !strings.Contains(got, want) {
		t.Errorf("RenderProfile = %q, want %q", got, want)
	}
}

func TestMergeMatchesSingleProfile(t *testing.T) {
	g, _ := dataset.New("mixed")
	vs := dataset.Values(g, 200, 3)
	whole := profileOf(t, vs...)
	a := profileOf(t, vs[:70]...)
	a.Merge(profileOf(t, vs[70:150]...))
	a.Merge(profileOf(t, vs[150:]...))
	if a.Values() != whole.Values() {
		t.Errorf("values: %d vs %d", a.Values(), whole.Values())
	}
	if render(t, a) != render(t, whole) {
		t.Error("renders differ after merge")
	}
	if latticeJSON(t, a) != latticeJSON(t, whole) {
		t.Error("lattice bytes differ after merge")
	}
}

func TestMergeEmptyAndNil(t *testing.T) {
	l := profileOf(t, value.Num(1))
	want := render(t, l)
	l.Merge(nil)
	l.Merge(profileOf(t))
	if got := render(t, l); got != want || l.Values() != 1 {
		t.Errorf("merging identities changed the profile: %q", got)
	}
	if got := render(t, Union(nil, l)); got != want {
		t.Errorf("merged into nothing: %q", got)
	}
}

func TestPropertyMergeAssociativeCommutative(t *testing.T) {
	g, _ := dataset.New("mixed")
	vs := dataset.Values(g, 120, 9)
	mk := func(lo, hi int) *Lattice { return profileOf(t, vs[lo:hi]...) }
	f := func(cut1, cut2 uint8) bool {
		c1 := 1 + int(cut1)%(len(vs)-2)
		c2 := c1 + 1 + int(cut2)%(len(vs)-c1-1)
		// (a+b)+c
		left := mk(0, c1)
		left.Merge(mk(c1, c2))
		left.Merge(mk(c2, len(vs)))
		// a+(c+b): different order and grouping
		rightTail := mk(c2, len(vs))
		rightTail.Merge(mk(c1, c2))
		right := mk(0, c1)
		right.Merge(rightTail)
		return render(t, left) == render(t, right) && latticeJSON(t, left) == latticeJSON(t, right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestTypeMatchesFusionPipeline cross-checks two independent
// computations over every generator: the lattice's counts and the
// fused schema must agree on the kinds at every path and on which
// record fields are optional.
func TestTypeMatchesFusionPipeline(t *testing.T) {
	set := profileSet(t)
	v, err := set.NewLattice().profileView()
	if err != nil {
		t.Fatal(err)
	}
	var agree func(path string, typ types.Type, n *node)
	agree = func(path string, typ types.Type, n *node) {
		c := n.states[v.counts].(*counts)
		// Indexed by types.Kind; an entry is zeroed once the schema has it.
		seen := []int64{c.Nulls, c.Bools, c.Nums, c.Strs, c.Objects, c.Arrays}
		for _, alt := range types.Addends(typ) {
			kind, _ := types.KindOf(alt)
			if seen[kind] == 0 {
				t.Errorf("%s: schema has %s, lattice counted none", path, kind)
			}
			seen[kind] = 0
			switch alt := alt.(type) {
			case *types.Record:
				for _, f := range alt.Fields() {
					child := n.fields[f.Key]
					if child == nil {
						t.Errorf("%s.%s: no lattice node", path, f.Key)
						continue
					}
					if present := child.states[v.counts].(*counts).total(); (present < c.Objects) != f.Optional {
						t.Errorf("%s.%s: present in %d of %d records, optional=%v", path, f.Key, present, c.Objects, f.Optional)
					}
					agree(path+"."+f.Key, f.Type, child)
				}
			case *types.Repeated:
				if n.elem != nil {
					agree(path+"[]", alt.Elem(), n.elem)
				}
			}
		}
		for kind, count := range seen {
			if count > 0 {
				t.Errorf("%s: lattice counted %d %s values the schema lacks", path, count, types.Kind(kind))
			}
		}
	}
	for _, name := range dataset.Names() {
		g, _ := dataset.New(name)
		l := set.NewLattice()
		acc := types.Type(types.Empty)
		for _, val := range dataset.Values(g, 150, 7) {
			observe(l, val)
			acc = fusion.Fuse(acc, fusion.Simplify(infer.Infer(val)))
		}
		agree(name+":$", acc, l.root)
	}
}

func TestRenderShape(t *testing.T) {
	out := render(t, profileOf(t,
		value.Obj("id", value.Num(1), "name", value.Str("ab"), "ok", value.Bool(true)),
		value.Obj("id", value.Num(9), "tags", value.Arr(value.Str("x")), "ok", value.Bool(false)),
	))
	for _, want := range []string{
		"profile of 2 values",
		`"id": Num ⟨1..9, mean 5⟩`,
		`"name"? ⟨50%⟩: Str`,
		`"ok": Bool ⟨50% true⟩`,
		"items",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderProfile missing %q:\n%s", want, out)
		}
	}
}

func TestRenderParsesAsSchemaShape(t *testing.T) {
	// The rendered profile is for humans, but its skeleton must mention
	// every field the schema has.
	g, _ := dataset.New("twitter")
	vs := dataset.Values(g, 100, 11)
	out := render(t, profileOf(t, vs...))
	acc := types.Type(types.Empty)
	for _, v := range vs {
		acc = fusion.Fuse(acc, fusion.Simplify(infer.Infer(v)))
	}
	types.Walk(acc, func(tt types.Type) bool {
		if rec, ok := tt.(*types.Record); ok {
			for _, f := range rec.Fields() {
				if !strings.Contains(out, `"`+f.Key+`"`) {
					t.Errorf("render lacks field %q", f.Key)
					return false
				}
			}
		}
		return true
	})
}

// TestProfileFromNDJSONStream: the streaming decoder drives the same
// events as observe, so a lattice it fills renders identically.
func TestProfileFromNDJSONStream(t *testing.T) {
	g, _ := dataset.New("github")
	data := dataset.NDJSON(g, 50, 13)
	l := profileSet(t).NewLattice()
	dec := infer.NewDecoder(bytes.NewReader(data), jsontext.Options{})
	defer dec.Release()
	dec.SetObserver(l)
	for {
		if _, err := dec.Next(); err != nil {
			break
		}
	}
	if l.Values() != 50 {
		t.Errorf("Values = %d", l.Values())
	}
	if render(t, l) != render(t, profileOf(t, dataset.Values(g, 50, 13)...)) {
		t.Error("decoder-observed profile differs from the value walk")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	g, _ := dataset.New("twitter")
	l := profileOf(t, dataset.Values(g, 60, 3)...)
	data := latticeJSON(t, l)
	back, err := UnmarshalLattice([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	if render(t, back) != render(t, l) {
		t.Error("render differs after codec round trip")
	}
	if latticeJSON(t, back) != data {
		t.Error("bytes differ after codec round trip")
	}
	// The decoded lattice keeps merging.
	back.Merge(profileOf(t, dataset.Values(g, 20, 9)...))
	if back.Values() != l.Values()+20 {
		t.Errorf("merged values = %d", back.Values())
	}
}

func TestCodecEmptyProfile(t *testing.T) {
	back, err := UnmarshalLattice([]byte(latticeJSON(t, profileOf(t))))
	if err != nil {
		t.Fatal(err)
	}
	if got := render(t, back); got != "ε (empty profile)\n" {
		t.Errorf("empty round trip renders %q", got)
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := UnmarshalLattice([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := UnmarshalLattice([]byte(`{"monoids":["counts","bogus"],"params":{"hll_precision":8,"bloom_bits":1024,"bloom_hashes":4}}`)); err == nil {
		t.Error("unknown monoid accepted")
	}
	set, err := ParseSet([]string{"ranges,lengths"})
	if err != nil {
		t.Fatal(err)
	}
	if err := set.NewLattice().CheckProfile(); err == nil {
		t.Error("a lattice without counts passes CheckProfile")
	}
	if _, err := set.NewLattice().RenderProfile(); err == nil {
		t.Error("a lattice without counts renders")
	}
}

// TestTypeFieldOrderDeterministic: fields render in key order, the same
// bytes run after run, whatever order the map holds them in.
func TestTypeFieldOrderDeterministic(t *testing.T) {
	keys := []string{"zulu", "alpha", "mike", "kilo", "echo", "tango", "bravo", "hotel"}
	build := func() string {
		fs := make([]value.Field, len(keys))
		for i, k := range keys {
			fs[i] = value.Field{Key: k, Value: value.Num(float64(i))}
		}
		return render(t, profileOf(t, value.MustRecord(fs...)))
	}
	want := build()
	for i := 0; i < 32; i++ {
		if got := build(); got != want {
			t.Fatalf("iteration %d: rendering differs:\n%s\nvs\n%s", i, got, want)
		}
	}
	prev := ""
	for _, line := range strings.Split(want, "\n")[2:] {
		key, _, ok := strings.Cut(strings.TrimSpace(line), ":")
		if !ok {
			continue
		}
		if key < prev {
			t.Fatalf("fields out of order: %s after %s", key, prev)
		}
		prev = key
	}
}
