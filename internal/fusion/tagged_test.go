package fusion

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/enrich/monoidtest"
	"repro/internal/infer"
	"repro/internal/types"
	"repro/internal/value"
)

var tagged = Options{Tagged: true}

// tagPool is small enough that the cap (MaxVariants) never trips in
// the random suites; manyTagPool below stresses the collapse path.
var tagPool = []string{"push", "fork", "watch", "issue", "deploy", "create", "delete", "release"}

// manyTagPool holds half again as many tags as MaxVariants, so the
// unions randomManyTagged draws from it overflow the cap on a good
// share of merges.
var manyTagPool = func() []string {
	pool := make([]string, MaxVariants*3/2)
	for i := range pool {
		pool[i] = fmt.Sprintf("t%02d", i)
	}
	return pool
}()

// randomManyTagged is a keyed union of 6 to 12 distinct tags from
// manyTagPool, each case a promoted random record, fused under the
// tagged policy; one in four also holds an undiscriminated record.
func randomManyTagged(r *rand.Rand) types.Type {
	acc := types.Type(types.Empty)
	for _, i := range r.Perm(len(manyTagPool))[:6+r.Intn(7)] {
		fs := append([]value.Field{{Key: "type", Value: value.Str(manyTagPool[i])}}, randomRecordValueR(r, 2).Fields()...)
		rt := infer.Infer(value.MustRecord(fs...)).(*types.Record)
		acc = tagged.Fuse(acc, tagged.Simplify(types.MustVariants("type", false, []types.Variant{{Tag: manyTagPool[i], Type: rt}}, nil)))
	}
	if r.Intn(4) == 0 {
		acc = tagged.Fuse(acc, tagged.Simplify(infer.Infer(randomRecordValueR(r, 2))))
	}
	return acc
}

// capCounter fuses under the tagged policy and counts the merges of two
// open unions, and how many of them the tag cap collapsed: the operands
// of randomManyTagged share their key, so the cap is the only way such
// a merge collapses.
type capCounter struct{ open, collapsed atomic.Int64 }

func (c *capCounter) fuse(a, b types.Type) types.Type {
	out := tagged.Fuse(a, b)
	va, ok1 := a.(*types.Variants)
	vb, ok2 := b.(*types.Variants)
	if ok1 && ok2 && !va.Collapsed() && !vb.Collapsed() {
		c.open.Add(1)
		if v, ok := out.(*types.Variants); ok && v.Collapsed() {
			c.collapsed.Add(1)
		}
	}
	return out
}

// requireFloor fails unless at least a quarter of the open merges
// collapsed, so the suite keeps covering the collapse path.
func (c *capCounter) requireFloor(t *testing.T) {
	t.Helper()
	if open, collapsed := c.open.Load(), c.collapsed.Load(); open == 0 || collapsed*4 < open {
		t.Errorf("the cap collapsed %d of %d merges of open unions, want at least a quarter", collapsed, open)
	}
}

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
// monoid harness over the tagged fusion policies: the tagged policy,
// the tagged policy over unions from manyTagPool (so the
// collapse-to-paper path fires on a good share of random merge trees),
// and the composition with the positional extension. Fingerprints are
// the canonical renderings, and the wire codec exercises the variants
// round-trip on every element.
func TestTaggedMonoidConformance(t *testing.T) {
	subject := func(name string, gen func(*rand.Rand) types.Type, merge func(a, b types.Type) types.Type) monoidtest.Subject {
		return monoidtest.Subject{
			Name:        name,
			Empty:       func() any { return types.Type(types.Empty) },
			Rand:        func(r *rand.Rand) any { return gen(r) },
			Merge:       func(a, b any) any { return merge(a.(types.Type), b.(types.Type)) },
			Fingerprint: func(x any) string { return x.(types.Type).String() },
			Marshal:     func(x any) ([]byte, error) { return types.MarshalJSON(x.(types.Type)) },
			Unmarshal:   func(data []byte) (any, error) { return types.UnmarshalJSON(data) },
		}
	}
	promoted := func(o Options) func(*rand.Rand) types.Type {
		return func(r *rand.Rand) types.Type {
			acc := o.Simplify(randomPromoted(r))
			for i := 0; i < r.Intn(3); i++ {
				acc = o.Fuse(acc, o.Simplify(randomPromoted(r)))
			}
			return acc
		}
	}
	tuples := Options{Tagged: true, Tuples: true}
	var caps capCounter
	monoidtest.Run(t, subject("fusion.Tagged", promoted(tagged), tagged.Fuse))
	monoidtest.Run(t, subject("fusion.Tagged(manyTags)", randomManyTagged, caps.fuse))
	monoidtest.Run(t, subject("fusion.Tagged+Tuples", promoted(tuples), tuples.Fuse))
	caps.requireFloor(t)
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

// TestTaggedCapAssociativity is the adversarial variant: over unions
// from manyTagPool the collapse fires at different points of the two
// association orders, which only converges because the collapsed state
// is a function of the constituent multiset. It also pins the cap's
// edge: MaxVariants tags stay a union, one more collapses it.
func TestTaggedCapAssociativity(t *testing.T) {
	var caps capCounter
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ts := make([]types.Type, 3)
		for i := range ts {
			ts[i] = randomManyTagged(r)
		}
		a := caps.fuse(caps.fuse(ts[0], ts[1]), ts[2])
		b := caps.fuse(ts[0], caps.fuse(ts[1], ts[2]))
		if !types.Equal(a, b) {
			t.Logf("T1=%s\nT2=%s\nT3=%s\nleft=%s\nright=%s", ts[0], ts[1], ts[2], a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 600}); err != nil {
		t.Error(err)
	}
	caps.requireFloor(t)

	acc := types.Type(types.Empty)
	for i, tag := range manyTagPool[:MaxVariants+1] {
		acc = tagged.Fuse(acc, types.MustParse(`variants(type){`+tag+`: {type: Str}}`))
		if got, want := acc.(*types.Variants).Collapsed(), i >= MaxVariants; got != want {
			t.Fatalf("%d tags: collapsed = %v, want %v", i+1, got, want)
		}
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

// TestPromoterDefaults pins Promoter's resolution of the tag keys: no
// promoter without Tagged, DefaultTagKeys for nil or empty TagKeys,
// and custom keys passed through as given.
func TestPromoterDefaults(t *testing.T) {
	for _, o := range []Options{{}, {Tuples: true}} {
		if pr := o.Promoter(); pr != nil {
			t.Errorf("%+v: Promoter() = %+v, want nil", o, pr)
		}
	}
	for _, c := range []struct {
		o    Options
		keys []string
	}{
		{Options{Tagged: true}, DefaultTagKeys},
		{Options{Tagged: true, Tuples: true}, DefaultTagKeys},
		{Options{Tagged: true, TagKeys: []string{"op"}}, []string{"op"}},
		{Options{Tagged: true, TagKeys: []string{}}, DefaultTagKeys},
	} {
		pr := c.o.Promoter()
		if pr == nil {
			t.Fatalf("%+v: Promoter() = nil", c.o)
		}
		if got := pr.CandidateKeys(); !slices.Equal(got, c.keys) {
			t.Errorf("%+v: CandidateKeys() = %q, want %q", c.o, got, c.keys)
		}
	}
}
