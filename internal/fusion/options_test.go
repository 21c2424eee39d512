package fusion

import (
	"testing"
	"testing/quick"

	"repro/internal/infer"
	"repro/internal/types"
	"repro/internal/value"
)

var positional = Options{Tuples: true}

// fuseAll folds ts under o through a TreeFold, which
// TestTreeFoldConformance pins byte for byte against the left fold.
func fuseAll(o Options, ts []types.Type) types.Type {
	f := NewTreeFold(o.Fuse)
	for _, t := range ts {
		f.Add(t)
	}
	return f.Result()
}

func TestZeroOptionsMatchPaperFuse(t *testing.T) {
	var o Options
	r := &rng{s: 99}
	for i := 0; i < 100; i++ {
		t1 := randomNormalType(r)
		t2 := randomNormalType(r)
		if !types.Equal(o.Fuse(t1, t2), Fuse(t1, t2)) {
			t.Fatalf("zero Options diverges from Fuse on %s / %s", t1, t2)
		}
	}
}

func TestPositionalKeepsEqualLengthTuples(t *testing.T) {
	cases := []struct {
		t1, t2, want string
	}{
		// Coordinate pairs stay positional.
		{"[Num, Num]", "[Num, Num]", "[Num, Num]"},
		{"[Num, Str]", "[Num, Num]", "[Num, Num + Str]"},
		{"[Num, {a: Num}]", "[Str, {b: Str}]", "[Num + Str, {a: Num?, b: Str?}]"},
		// Length mismatch falls back to the paper's simplification.
		{"[Num, Num]", "[Num]", "[Num*]"},
		{"[Num, Num]", "[Str, Str, Str]", "[(Num + Str)*]"},
		// Repeated types force simplification too.
		{"[Num, Num]", "[Num*]", "[Num*]"},
		{"[Num*]", "[Num, Str]", "[(Num + Str)*]"},
		// The empty tuple is preserved only against itself (length 0 is
		// below the cutoff, so it simplifies).
		{"[]", "[]", "[ε*]"},
	}
	for _, c := range cases {
		got := positional.Fuse(types.MustParse(c.t1), types.MustParse(c.t2))
		if !types.Equal(got, types.MustParse(c.want)) {
			t.Errorf("Fuse(%s, %s) = %s, want %s", c.t1, c.t2, got, c.want)
		}
	}
}

func TestMaxTupleLenCutoff(t *testing.T) {
	long := "[Num, Num, Num, Num, Num]" // length 5 > MaxTupleLen 4
	got := positional.Fuse(types.MustParse(long), types.MustParse(long))
	if !types.Equal(got, types.MustParse("[Num*]")) {
		t.Errorf("5-tuple should simplify under the cutoff, got %s", got)
	}
}

func TestPositionalSimplify(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"[Num, Str]", "[Num, Str]"},            // kept
		{"[Num, Num, Num, Num, Num]", "[Num*]"}, // beyond cutoff
		{"{a: [[Num, Num], [Num, Num]]}", "{a: [[Num, Num], [Num, Num]]}"},
		{"[]", "[ε*]"},
		{"[[Num, Num, Num, Num, Num]]", "[[Num*]]"}, // outer kept, inner simplified
	}
	for _, c := range cases {
		got := positional.Simplify(types.MustParse(c.in))
		if !types.Equal(got, types.MustParse(c.want)) {
			t.Errorf("Simplify(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestPositionalPrecisionExample(t *testing.T) {
	// GeoJSON-style coordinates: the paper's algorithm gives [Num*],
	// losing arity; the positional policy keeps the pair.
	vs := []value.Value{
		value.Obj("coordinates", value.Arr(value.Num(2.35), value.Num(48.85))),
		value.Obj("coordinates", value.Arr(value.Num(-74.0), value.Num(40.7))),
	}
	ts := make([]types.Type, len(vs))
	for i, v := range vs {
		ts[i] = infer.Infer(v)
	}
	paper := FuseAll(ts)
	pos := fuseAll(positional, ts)
	if !types.Equal(paper, types.MustParse("{coordinates: [Num*]}")) {
		t.Errorf("paper fusion = %s", paper)
	}
	if !types.Equal(pos, types.MustParse("{coordinates: [Num, Num]}")) {
		t.Errorf("positional fusion = %s", pos)
	}
	// Precision: the positional type rejects a 3-element array that the
	// simplified one (soundly but imprecisely) accepts.
	triple := value.Obj("coordinates", value.Arr(value.Num(1), value.Num(2), value.Num(3)))
	if !types.Member(triple, paper) {
		t.Error("paper type should accept the triple (over-approximation)")
	}
	if types.Member(triple, pos) {
		t.Error("positional type should reject the triple")
	}
}

func TestPositionalCorrectness(t *testing.T) {
	// Theorem 5.2 must survive the extension: inputs remain subtypes of
	// the fusion, and source values remain members.
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		v1 := randomValue(r, 3)
		v2 := randomValue(r, 3)
		t1 := infer.Infer(v1)
		t2 := infer.Infer(v2)
		fused := positional.Fuse(t1, t2)
		if !types.Member(v1, fused) || !types.Member(v2, fused) {
			t.Logf("v1=%s v2=%s fused=%s", value.JSON(v1), value.JSON(v2), fused)
			return false
		}
		return types.Subtype(t1, fused) && types.Subtype(t2, fused)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPositionalCommutativity(t *testing.T) {
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		t1 := randomPositionalType(r)
		t2 := randomPositionalType(r)
		return types.Equal(positional.Fuse(t1, t2), positional.Fuse(t2, t1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPositionalAssociativity(t *testing.T) {
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		t1 := randomPositionalType(r)
		t2 := randomPositionalType(r)
		t3 := randomPositionalType(r)
		a := positional.Fuse(positional.Fuse(t1, t2), t3)
		b := positional.Fuse(t1, positional.Fuse(t2, t3))
		if !types.Equal(a, b) {
			t.Logf("T1=%s\nT2=%s\nT3=%s\nleft=%s\nright=%s", t1, t2, t3, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPositionalNormalForm(t *testing.T) {
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		fused := positional.Fuse(randomPositionalType(r), randomPositionalType(r))
		return types.IsNormal(fused)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPositionalSubsumedBySimplified(t *testing.T) {
	// The positional schema is at least as precise: it is always a
	// subtype of the paper's simplified schema for the same data.
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		ts := make([]types.Type, 1+r.intn(4))
		for i := range ts {
			ts[i] = infer.Infer(randomValue(r, 3))
		}
		pos := fuseAll(positional, ts)
		paper := FuseAll(ts)
		if !types.Subtype(pos, paper) {
			t.Logf("pos=%s\npaper=%s", pos, paper)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomPositionalType builds normal types the positional pipeline would
// see: fusions of inferred types under the positional policy.
func randomPositionalType(r *rng) types.Type {
	acc := infer.Infer(randomValue(r, 3))
	for i := 0; i < r.intn(3); i++ {
		acc = positional.Fuse(acc, infer.Infer(randomValue(r, 3)))
	}
	return acc
}
