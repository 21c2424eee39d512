package pathquery

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/types"
	"repro/internal/value"
)

func TestParseAndString(t *testing.T) {
	cases := []struct {
		src  string
		want string // canonical rendering; "" means same as src
	}{
		{"$", ""},
		{"$.a", ""},
		{"$.a.b.c", ""},
		{"$.*", ""},
		{"$[*]", ""},
		{"$.items[*].id", ""},
		{`$["with space"]`, ""},
		{`$["a.b"]`, ""},
		{`$.a[*][*]`, ""},
		{`$["plain"]`, "$.plain"}, // quoted form normalizes to bare
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		want := c.want
		if want == "" {
			want = c.src
		}
		if got := p.String(); got != want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"", "a.b", "$.", "$..a", "$[", `$["unterminated`, `$["a"x]`, "$x", `$["bad\q"]`,
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

// TestPathStringRoundTrip pins that Parse reads back every escape
// Path.String writes for a quoted key, control characters included.
func TestPathStringRoundTrip(t *testing.T) {
	for _, key := range []string{
		`q"uote`, `back\slash`, "new\nline", "carriage\rreturn", "tab\tbed",
		"ctl\x01", "bs\x08", "naïve", "😀",
	} {
		p := Path{steps: []Step{{Kind: StepField, Key: key}, {Kind: StepElem}}}
		back, err := Parse(p.String())
		if err != nil {
			t.Errorf("Parse(%q): %v", p.String(), err)
			continue
		}
		if got := back.Steps(); len(got) != 2 || got[0].Key != key {
			t.Errorf("Parse(%q) = %v, want key %q", p.String(), got, key)
		}
	}
}

func TestExpandConcretePath(t *testing.T) {
	schema := types.MustParse("{user: {id: Num, name: Str?}, tags: [Str*]}")
	ms := Expand(schema, MustParse("$.user.id"))
	if len(ms) != 1 {
		t.Fatalf("matches = %+v", ms)
	}
	if !types.Equal(ms[0].Type, types.Num) || ms[0].CanMiss {
		t.Errorf("match = %+v", ms[0])
	}
	// Optional field: can miss.
	ms = Expand(schema, MustParse("$.user.name"))
	if len(ms) != 1 || !ms[0].CanMiss {
		t.Errorf("optional match = %+v", ms)
	}
	// Array elements can always miss (empty array).
	ms = Expand(schema, MustParse("$.tags[*]"))
	if len(ms) != 1 || !ms[0].CanMiss || !types.Equal(ms[0].Type, types.Str) {
		t.Errorf("array match = %+v", ms)
	}
}

func TestExpandWildcard(t *testing.T) {
	schema := types.MustParse("{a: Num, b: {c: Str}, d: Bool?}")
	ms := Expand(schema, MustParse("$.*"))
	if len(ms) != 3 {
		t.Fatalf("wildcard matches = %d", len(ms))
	}
	got := map[string]string{}
	for _, m := range ms {
		got[m.Path.String()] = m.Type.String()
	}
	if got["$.a"] != "Num" || got["$.b"] != "{c: Str}" || got["$.d"] != "Bool" {
		t.Errorf("expansion = %v", got)
	}
}

func TestExpandDeadPathDetected(t *testing.T) {
	schema := types.MustParse("{a: Num}")
	if ms := Expand(schema, MustParse("$.nope")); len(ms) != 0 {
		t.Errorf("dead path matched: %+v", ms)
	}
	if ms := Expand(schema, MustParse("$.a[*]")); len(ms) != 0 {
		t.Errorf("array access on Num matched: %+v", ms)
	}
	if ms := Expand(schema, MustParse("$[*]")); len(ms) != 0 {
		t.Errorf("element access on a record matched: %+v", ms)
	}
}

func TestExpandThroughUnions(t *testing.T) {
	schema := types.MustParse("{a: Num + {b: Str}}")
	ms := Expand(schema, MustParse("$.a.b"))
	if len(ms) != 1 {
		t.Fatalf("matches = %+v", ms)
	}
	// The record alternative may not be taken, so the path can miss.
	if !ms[0].CanMiss || !types.Equal(ms[0].Type, types.Str) {
		t.Errorf("union match = %+v", ms[0])
	}
}

func TestExpandTupleElements(t *testing.T) {
	schema := types.MustParse("{pair: [Num, Str]}")
	ms := Expand(schema, MustParse("$.pair[*]"))
	if len(ms) != 1 {
		t.Fatalf("matches = %+v", ms)
	}
	if !types.Equal(ms[0].Type, types.MustParse("Num + Str")) {
		t.Errorf("tuple element type = %s", ms[0].Type)
	}
}

func TestExpandMergesUnionBranches(t *testing.T) {
	// The same concrete path reachable through two alternatives merges.
	schema := types.MustParse("[{a: Num}*] + [{a: Str}*]")
	// Non-normal schema, but Expand is defined on any canonical type.
	ms := Expand(schema, MustParse("$[*].a"))
	if len(ms) != 1 {
		t.Fatalf("matches = %+v", ms)
	}
	if !types.Equal(ms[0].Type, types.MustParse("Num + Str")) {
		t.Errorf("merged type = %s", ms[0].Type)
	}
}

func TestExpandOnRealDatasetSchema(t *testing.T) {
	g, _ := dataset.New("twitter")
	acc := types.Type(types.Empty)
	for _, v := range dataset.Values(g, 300, 5) {
		acc = fusion.Fuse(acc, fusion.Simplify(infer.Infer(v)))
	}
	// Wildcard-expand the entities: the schema knows all entity kinds.
	ms := Expand(acc, MustParse("$.entities.*"))
	keys := map[string]bool{}
	for _, m := range ms {
		keys[m.Path.String()] = true
	}
	for _, want := range []string{"$.entities.hashtags", "$.entities.urls", "$.entities.user_mentions"} {
		if !keys[want] {
			t.Errorf("expansion missing %s (got %v)", want, keys)
		}
	}
	// The nested hashtag text path is typed Str and can miss (tweets
	// without entities are deletes etc.).
	ms = Expand(acc, MustParse("$.entities.hashtags[*].text"))
	if len(ms) != 1 || !types.Equal(ms[0].Type, types.Str) || !ms[0].CanMiss {
		t.Errorf("hashtag text = %+v", ms)
	}
	// A typo'd path is statically dead.
	if ms := Expand(acc, MustParse("$.entities.hashtag[*]")); len(ms) != 0 {
		t.Errorf("typo path matched: %+v", ms)
	}
}

func TestMaskApply(t *testing.T) {
	v := value.Obj(
		"id", value.Num(7),
		"user", value.Obj("name", value.Str("ada"), "bio", value.Str("long text")),
		"tags", value.Arr(value.Obj("k", value.Str("a"), "noise", value.Num(1))),
		"payload", value.Str("enormous"),
	)
	mask := NewMask(MustParse("$.id"), MustParse("$.user.name"), MustParse("$.tags[*].k"))
	got := mask.Apply(v)
	want := value.Obj(
		"id", value.Num(7),
		"user", value.Obj("name", value.Str("ada")),
		"tags", value.Arr(value.Obj("k", value.Str("a"))),
	)
	if !value.Equal(got, want) {
		t.Errorf("Apply = %s, want %s", value.JSON(got), value.JSON(want))
	}
	if value.Nodes(got) >= value.Nodes(v) {
		t.Error("projection did not shrink the value")
	}
}

func TestMaskFullSubtree(t *testing.T) {
	v := value.Obj("a", value.Obj("x", value.Num(1), "y", value.Num(2)), "b", value.Num(3))
	mask := NewMask(MustParse("$.a"))
	got := mask.Apply(v)
	want := value.Obj("a", value.Obj("x", value.Num(1), "y", value.Num(2)))
	if !value.Equal(got, want) {
		t.Errorf("Apply = %s", value.JSON(got))
	}
}

func TestMaskWildcardField(t *testing.T) {
	v := value.Obj("a", value.Obj("k", value.Num(1)), "b", value.Obj("k", value.Num(2)))
	mask := NewMask(MustParse("$.*.k"))
	got := mask.Apply(v)
	if !value.Equal(got, v) {
		t.Errorf("Apply = %s, want everything (all leaves selected)", value.JSON(got))
	}
}

func TestMaskRootKeepsAll(t *testing.T) {
	v := value.Obj("a", value.Num(1))
	if got := NewMask(MustParse("$")).Apply(v); !value.Equal(got, v) {
		t.Errorf("root mask dropped data: %s", value.JSON(got))
	}
	var nilMask *Mask
	if got := nilMask.Apply(v); !value.Equal(got, v) {
		t.Error("nil mask should be identity")
	}
}

func TestMaskArrayWithoutElemPath(t *testing.T) {
	v := value.Obj("xs", value.Arr(value.Num(1), value.Num(2)))
	mask := NewMask(MustParse("$.xs"))
	if got := mask.Apply(v); !value.Equal(got, v) {
		t.Errorf("selecting the array keeps it whole: %s", value.JSON(got))
	}
	// Selecting a sibling drops the array entirely.
	v2 := value.Obj("xs", value.Arr(value.Num(1)), "keep", value.Num(2))
	mask2 := NewMask(MustParse("$.keep"))
	want := value.Obj("keep", value.Num(2))
	if got := mask2.Apply(v2); !value.Equal(got, want) {
		t.Errorf("Apply = %s", value.JSON(got))
	}
}

func TestProjectionSavingsOnDataset(t *testing.T) {
	// The Section 1 scenario: a query touching three paths of NYTimes
	// records loads a fraction of each record.
	g, _ := dataset.New("nytimes")
	mask := NewMask(
		MustParse("$.headline.main"),
		MustParse("$.pub_date"),
		MustParse("$.keywords[*].value"),
	)
	var full, projected int
	for _, v := range dataset.Values(g, 100, 3) {
		full += value.Nodes(v)
		projected += value.Nodes(mask.Apply(v))
	}
	if ratio := float64(projected) / float64(full); ratio > 0.3 {
		t.Errorf("projection kept %.0f%% of nodes, want < 30%%", ratio*100)
	}
}

func TestProjectedValuesStillConform(t *testing.T) {
	// Projected values conform to the correspondingly projected schema:
	// here we check the weaker but useful property that projection never
	// invents data — every projected record is a "sub-record".
	g, _ := dataset.New("github")
	mask := NewMask(MustParse("$.user.login"), MustParse("$.state"))
	for _, v := range dataset.Values(g, 50, 9) {
		got := mask.Apply(v).(*value.Record)
		orig := v.(*value.Record)
		for _, f := range got.Fields() {
			if orig.Get(f.Key) == nil {
				t.Fatalf("projection invented field %q", f.Key)
			}
		}
		if got.Len() != 2 {
			t.Fatalf("projected record has %d fields, want 2", got.Len())
		}
	}
}

func TestExpandPathStringsRoundTrip(t *testing.T) {
	schema := types.MustParse(`{a: {"odd key": Num}, xs: [{y: Str}*]}`)
	for _, src := range []string{`$.a["odd key"]`, "$.xs[*].y"} {
		ms := Expand(schema, MustParse(src))
		if len(ms) != 1 {
			t.Fatalf("%s: matches = %+v", src, ms)
		}
		back, err := Parse(ms[0].Path.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", ms[0].Path.String(), err)
		}
		if back.String() != ms[0].Path.String() {
			t.Errorf("path round trip: %q vs %q", back.String(), ms[0].Path.String())
		}
	}
}
