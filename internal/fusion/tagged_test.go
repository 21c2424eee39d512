package fusion

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/enrich/monoidtest"
	"repro/internal/infer"
	"repro/internal/types"
	"repro/internal/value"
)

var tagged = Options{Tagged: true}

// tagPool is large enough that the default cap (16) rarely trips in the
// random suites; the cap=2 subjects below stress the collapse path on
// nearly every merge instead.
var tagPool = []string{"push", "fork", "watch", "issue", "deploy", "create", "delete", "release"}

// randomValueR mirrors randomValue over math/rand, the source the
// monoidtest harness regenerates elements from.
func randomValueR(r *rand.Rand, depth int) value.Value {
	max := 6
	if depth <= 0 {
		max = 4
	}
	switch r.Intn(max) {
	case 0:
		return value.Null{}
	case 1:
		return value.Bool(r.Intn(2) == 0)
	case 2:
		return value.Num(float64(r.Intn(50)))
	case 3:
		return value.Str(strings.Repeat("s", r.Intn(3)))
	case 4:
		return randomRecordValueR(r, depth)
	default:
		var a value.Array
		for i := 0; i < r.Intn(4); i++ {
			a = append(a, randomValueR(r, depth-1))
		}
		return a
	}
}

// randomRecordValueR builds a record value over keys a..e.
func randomRecordValueR(r *rand.Rand, depth int) *value.Record {
	var fs []value.Field
	seen := map[string]bool{}
	for i := 0; i < r.Intn(4); i++ {
		k := string(rune('a' + r.Intn(5)))
		if seen[k] {
			continue
		}
		seen[k] = true
		fs = append(fs, value.Field{Key: k, Value: randomValueR(r, depth-1)})
	}
	return value.MustRecord(fs...)
}

// randomPromoted produces the types phase one hands the tagged fusion:
// keyed and wrapper single-case variants around inferred records, plain
// records, and non-record values — the full input distribution of the
// tagged monoid.
func randomPromoted(r *rand.Rand) types.Type {
	switch r.Intn(5) {
	case 0, 1: // keyed promotion
		key := [...]string{"type", "event"}[r.Intn(2)]
		tag := tagPool[r.Intn(len(tagPool))]
		rv := randomRecordValueR(r, 2)
		fs := append([]value.Field{{Key: key, Value: value.Str(tag)}}, rv.Fields()...)
		rt := infer.Infer(value.MustRecord(fs...)).(*types.Record)
		return types.MustVariants(key, false, []types.Variant{{Tag: tag, Type: rt}}, nil)
	case 2: // wrapper promotion
		tag := tagPool[r.Intn(len(tagPool))]
		rt := infer.Infer(value.MustRecord(value.Field{Key: tag, Value: randomRecordValueR(r, 2)})).(*types.Record)
		return types.MustVariants("", true, []types.Variant{{Tag: tag, Type: rt}}, nil)
	case 3: // undiscriminated record
		return infer.Infer(randomRecordValueR(r, 2))
	default: // any value kind
		return infer.Infer(randomValueR(r, 2))
	}
}

// TestTaggedMonoidConformance runs the repository-wide commutative
// monoid harness over the tagged fusion policies: the default knobs, a
// cap of two (so the collapse-to-paper path fires on nearly every
// random merge tree), and the composition with the positional
// extension. Fingerprints are the canonical renderings, and the wire
// codec exercises the variants round-trip on every element.
func TestTaggedMonoidConformance(t *testing.T) {
	subject := func(name string, o Options) monoidtest.Subject {
		return monoidtest.Subject{
			Name:  name,
			Empty: func() any { return types.Type(types.Empty) },
			Rand: func(r *rand.Rand) any {
				acc := o.Simplify(randomPromoted(r))
				for i := 0; i < r.Intn(3); i++ {
					acc = o.Fuse(acc, o.Simplify(randomPromoted(r)))
				}
				return acc
			},
			Merge:       func(a, b any) any { return o.Fuse(a.(types.Type), b.(types.Type)) },
			Fingerprint: func(x any) string { return x.(types.Type).String() },
			Marshal:     func(x any) ([]byte, error) { return types.MarshalJSON(x.(types.Type)) },
			Unmarshal:   func(data []byte) (any, error) { return types.UnmarshalJSON(data) },
		}
	}
	monoidtest.Run(t, subject("fusion.Tagged", tagged))
	monoidtest.Run(t, subject("fusion.Tagged(cap=2)", Options{Tagged: true, MaxVariants: 2}))
	monoidtest.Run(t, subject("fusion.Tagged+Tuples", Options{Tagged: true, Tuples: true}))
}

// randomTaggedType builds elements the way the pipeline accumulators
// do: a fusion of simplified phase-one types under the tagged policy.
func randomTaggedType(r *rand.Rand) types.Type {
	acc := tagged.Simplify(randomPromoted(r))
	for i := 0; i < r.Intn(3); i++ {
		acc = tagged.Fuse(acc, tagged.Simplify(randomPromoted(r)))
	}
	return acc
}

func TestTaggedCommutativity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		t1 := randomTaggedType(r)
		t2 := randomTaggedType(r)
		return types.Equal(tagged.Fuse(t1, t2), tagged.Fuse(t2, t1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestTaggedAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		t1 := randomTaggedType(r)
		t2 := randomTaggedType(r)
		t3 := randomTaggedType(r)
		a := tagged.Fuse(tagged.Fuse(t1, t2), t3)
		b := tagged.Fuse(t1, tagged.Fuse(t2, t3))
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

// TestTaggedCapAssociativity is the adversarial variant: with a cap of
// two the collapse fires at different points of the two association
// orders, which only converges because the collapsed state is a
// function of the constituent multiset.
func TestTaggedCapAssociativity(t *testing.T) {
	capped := Options{Tagged: true, MaxVariants: 2}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ts := make([]types.Type, 3)
		for i := range ts {
			ts[i] = capped.Simplify(randomPromoted(r))
		}
		a := capped.Fuse(capped.Fuse(ts[0], ts[1]), ts[2])
		b := capped.Fuse(ts[0], capped.Fuse(ts[1], ts[2]))
		if !types.Equal(a, b) {
			t.Logf("T1=%s\nT2=%s\nT3=%s\nleft=%s\nright=%s", ts[0], ts[1], ts[2], a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
}

func TestTaggedNormalForm(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fused := tagged.Fuse(randomTaggedType(r), randomTaggedType(r))
		return types.IsNormal(fused) && types.IsNormal(tagged.Finalize(fused))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestTaggedCorrectness is Theorem 5.2 for the tagged policy: source
// values stay members of the fused type, before and after finalize.
func TestTaggedCorrectness(t *testing.T) {
	pr := tagged.Promoter()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vs := make([]value.Value, 2+r.Intn(3))
		ts := make([]types.Type, len(vs))
		for i := range vs {
			rv := randomRecordValueR(r, 2)
			if r.Intn(2) == 0 {
				tag := tagPool[r.Intn(len(tagPool))]
				fs := append([]value.Field{{Key: "type", Value: value.Str(tag)}}, rv.Fields()...)
				rv = value.MustRecord(fs...)
				vs[i] = rv
				ts[i] = pr.Promote(infer.Infer(rv).(*types.Record), "type", tag)
			} else {
				vs[i] = rv
				ts[i] = infer.Infer(rv)
			}
		}
		fused := types.Type(types.Empty)
		for _, tt := range ts {
			fused = tagged.Fuse(fused, tagged.Simplify(tt))
		}
		final := tagged.Finalize(fused)
		for _, v := range vs {
			if !types.Member(v, fused) || !types.Member(v, final) {
				t.Logf("v=%s\nfused=%s\nfinal=%s", value.JSON(v), fused, final)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTaggedSubsumedByPaper: the finalized tagged schema refines the
// paper schema for the same inputs — it admits only values the plain
// record fusion admits.
func TestTaggedSubsumedByPaper(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(4)
		taggedAcc := types.Type(types.Empty)
		paperAcc := types.Type(types.Empty)
		for i := 0; i < n; i++ {
			pt := randomPromoted(r)
			taggedAcc = tagged.Fuse(taggedAcc, tagged.Simplify(pt))
			var o Options
			paperAcc = o.Fuse(paperAcc, o.Simplify(flattenPromoted(pt)))
		}
		final := tagged.Finalize(taggedAcc)
		if !types.Subtype(final, paperAcc) {
			t.Logf("tagged=%s\npaper=%s", final, paperAcc)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// flattenPromoted strips the phase-one promotion, recovering the plain
// record the default decoder would have inferred.
func flattenPromoted(t types.Type) types.Type {
	if v, ok := t.(*types.Variants); ok {
		return Options{}.flattenVariants(v)
	}
	return t
}

// TestTaggedCollapseMatchesPaper pins the failure semantics: a mode or
// key mismatch collapses to exactly the record the paper policy
// infers for the same constituents.
func TestTaggedCollapseMatchesPaper(t *testing.T) {
	a := types.MustParse(`{type: Str, ref: Str}`).(*types.Record)
	b := types.MustParse(`{event: Str, repo: Str}`).(*types.Record)
	va := types.MustVariants("type", false, []types.Variant{{Tag: "push", Type: a}}, nil)
	vb := types.MustVariants("event", false, []types.Variant{{Tag: "fork", Type: b}}, nil)
	got := tagged.Fuse(va, vb)
	gv, ok := got.(*types.Variants)
	if !ok || !gv.Collapsed() {
		t.Fatalf("mismatched keys should collapse, got %s", got)
	}
	var o Options
	want := o.Fuse(a, b)
	if !types.Equal(gv.Other(), want) {
		t.Fatalf("collapsed content = %s, want the paper fusion %s", gv.Other(), want)
	}
	if !types.Equal(tagged.Finalize(got), want) {
		t.Fatalf("finalized collapse = %s, want %s", tagged.Finalize(got), want)
	}
}

// TestTaggedFinalizeWrapperThreshold pins the wrapper lowering rule: a
// single observed wrapper tag flattens away (a one-field record is
// overwhelmingly a nested object), two or more survive.
func TestTaggedFinalizeWrapperThreshold(t *testing.T) {
	one := types.MustParse(`wrapper{delete: {delete: {id: Num}}}`)
	if got := tagged.Finalize(one); !types.Equal(got, types.MustParse(`{delete: {id: Num}}`)) {
		t.Errorf("single-tag wrapper should flatten, got %s", got)
	}
	two := tagged.Fuse(one, types.MustParse(`wrapper{limit: {limit: {track: Num}}}`))
	if got, ok := tagged.Finalize(two).(*types.Variants); !ok || got.Len() != 2 {
		t.Errorf("two-tag wrapper should survive finalize, got %s", tagged.Finalize(two))
	}
}

// TestTaggedIdempotent: fusing a tagged schema with itself changes
// nothing — the idempotence law merging accumulators relies on.
func TestTaggedIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := randomTaggedType(r)
		return types.Equal(tagged.Fuse(x, x), x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPromoterDefaults pins Promoter's resolution of the tagged knobs:
// no promoter without Tagged, the package defaults for zero TagKeys
// and MaxTagLen, and custom values passed through as given.
func TestPromoterDefaults(t *testing.T) {
	for _, o := range []Options{{}, {Tuples: true}} {
		if pr := o.Promoter(); pr != nil {
			t.Errorf("%+v: Promoter() = %+v, want nil", o, pr)
		}
	}
	for _, c := range []struct {
		o      Options
		keys   []string
		tagLen int
	}{
		{Options{Tagged: true}, DefaultTagKeys, DefaultMaxTagLen},
		{Options{Tagged: true, Tuples: true, MaxVariants: 3}, DefaultTagKeys, DefaultMaxTagLen},
		{Options{Tagged: true, TagKeys: []string{"op"}, MaxTagLen: 7}, []string{"op"}, 7},
		{Options{Tagged: true, TagKeys: []string{}}, []string{}, DefaultMaxTagLen},
	} {
		pr := c.o.Promoter()
		if pr == nil {
			t.Fatalf("%+v: Promoter() = nil", c.o)
		}
		if got := pr.CandidateKeys(); !slices.Equal(got, c.keys) || (got == nil) != (c.keys == nil) {
			t.Errorf("%+v: CandidateKeys() = %q, want %q", c.o, got, c.keys)
		}
		if got := pr.MaxTagLen(); got != c.tagLen {
			t.Errorf("%+v: MaxTagLen() = %d, want %d", c.o, got, c.tagLen)
		}
	}
}
