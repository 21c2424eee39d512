package jsonschema

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/types"
	"repro/internal/value"
)

// schemaDoc renders typ with Marshal and decodes the document into the
// tree encoding/json builds (map[string]any, []any, float64, ...), the
// shape the tests and the validate mini-validator read.
func schemaDoc(typ types.Type) (map[string]any, error) {
	data, err := Marshal(typ)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	err = json.Unmarshal(data, &doc)
	return doc, err
}

func mustDoc(t *testing.T, typ types.Type) map[string]any {
	t.Helper()
	doc, err := schemaDoc(typ)
	if err != nil {
		t.Fatalf("schemaDoc %s: %v", typ, err)
	}
	return doc
}

func TestExportBasics(t *testing.T) {
	cases := []struct {
		t    types.Type
		want string // substring of marshaled schema
	}{
		{types.Null, `"type": "null"`},
		{types.Bool, `"type": "boolean"`},
		{types.Num, `"type": "number"`},
		{types.Str, `"type": "string"`},
		{types.Empty, `"not": {}`},
	}
	for _, c := range cases {
		data, err := Marshal(c.t)
		if err != nil {
			t.Fatalf("Marshal(%s): %v", c.t, err)
		}
		if !strings.Contains(string(data), c.want) {
			t.Errorf("Marshal(%s) = %s, missing %q", c.t, data, c.want)
		}
	}
}

func TestMarshalIsValidJSONWithSchemaMarker(t *testing.T) {
	data, err := Marshal(types.MustParse("{a: Num, b: (Str + Null)?}"))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if doc["$schema"] != "http://json-schema.org/draft-04/schema#" {
		t.Errorf("$schema = %v", doc["$schema"])
	}
}

func TestExportRecord(t *testing.T) {
	doc := mustDoc(t, types.MustParse("{a: Num, b: Str?}"))
	if doc["type"] != "object" {
		t.Errorf("type = %v", doc["type"])
	}
	props := doc["properties"].(map[string]any)
	if len(props) != 2 {
		t.Errorf("properties = %v", props)
	}
	req := doc["required"].([]any)
	if len(req) != 1 || req[0] != "a" {
		t.Errorf("required = %v", req)
	}
	if doc["additionalProperties"] != false {
		t.Error("additionalProperties should be false")
	}
}

func TestExportAllOptionalRecordHasNoRequired(t *testing.T) {
	doc := mustDoc(t, types.MustParse("{a: Num?, b: Str?}"))
	if _, ok := doc["required"]; ok {
		t.Error("required should be absent when every field is optional")
	}
}

func TestExportArrays(t *testing.T) {
	// Tuple.
	doc := mustDoc(t, types.MustParse("[Num, Str]"))
	if doc["minItems"] != 2.0 || doc["maxItems"] != 2.0 {
		t.Errorf("tuple bounds = %v..%v", doc["minItems"], doc["maxItems"])
	}
	if items := doc["items"].([]any); len(items) != 2 {
		t.Errorf("items = %v", items)
	}
	// Repeated.
	doc = mustDoc(t, types.MustParse("[Num*]"))
	if _, isList := doc["items"].([]any); isList {
		t.Error("repeated type should have a single items schema")
	}
	// Empty array type.
	doc = mustDoc(t, types.MustParse("[ε*]"))
	if doc["maxItems"] != 0.0 {
		t.Errorf("[ε*] maxItems = %v", doc["maxItems"])
	}
	// Empty tuple [] also admits only the empty array.
	doc = mustDoc(t, types.MustParse("[]"))
	if doc["maxItems"] != 0.0 {
		t.Errorf("[] maxItems = %v", doc["maxItems"])
	}
}

func TestExportUnion(t *testing.T) {
	doc := mustDoc(t, types.MustParse("Num + Str"))
	if alts := doc["anyOf"].([]any); len(alts) != 2 {
		t.Errorf("anyOf = %v", alts)
	}
}

func TestExportNil(t *testing.T) {
	if _, err := Marshal(nil); err == nil {
		t.Error("Marshal(nil) should fail")
	}
	if _, err := MarshalAnnotated(nil, nil); err == nil {
		t.Error("MarshalAnnotated(nil, nil) should fail")
	}
}

// validate is a miniature draft-04 validator for exactly the vocabulary
// Marshal emits. It lets the property test below check that the exported
// schema accepts the same values as types.Member.
func validate(doc map[string]any, v value.Value) bool {
	if anyOf, ok := doc["anyOf"].([]any); ok {
		for _, alt := range anyOf {
			if validate(alt.(map[string]any), v) {
				return true
			}
		}
		return false
	}
	if _, ok := doc["not"]; ok {
		return false // Marshal only emits "not": {}
	}
	switch doc["type"] {
	case "null":
		return v.Kind() == value.KindNull
	case "boolean":
		return v.Kind() == value.KindBool
	case "number":
		return v.Kind() == value.KindNum
	case "string":
		return v.Kind() == value.KindStr
	case "object":
		rec, ok := v.(*value.Record)
		if !ok {
			return false
		}
		props, _ := doc["properties"].(map[string]any)
		addl, addlIsSchema := doc["additionalProperties"].(map[string]any)
		for _, f := range rec.Fields() {
			sub, ok := props[f.Key].(map[string]any)
			if !ok {
				if addlIsSchema {
					if !validate(addl, f.Value) {
						return false
					}
					continue
				}
				return false // additionalProperties: false
			}
			if !validate(sub, f.Value) {
				return false
			}
		}
		if req, ok := doc["required"].([]any); ok {
			for _, k := range req {
				if !rec.Has(k.(string)) {
					return false
				}
			}
		}
		return true
	case "array":
		arr, ok := v.(value.Array)
		if !ok {
			return false
		}
		if min, ok := doc["minItems"].(float64); ok && float64(len(arr)) < min {
			return false
		}
		if max, ok := doc["maxItems"].(float64); ok && float64(len(arr)) > max {
			return false
		}
		switch items := doc["items"].(type) {
		case []any:
			for i, e := range arr {
				if i >= len(items) {
					return false // additionalItems: false
				}
				if !validate(items[i].(map[string]any), e) {
					return false
				}
			}
			return true
		case map[string]any:
			for _, e := range arr {
				if !validate(items, e) {
					return false
				}
			}
			return true
		default:
			return true // no items constraint (empty arrays only)
		}
	default:
		return false
	}
}

type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

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
		return value.Num(float64(r.intn(40)))
	case 3:
		return value.Str(strings.Repeat("v", r.intn(3)))
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

func TestPropertyExportAgreesWithMember(t *testing.T) {
	// For fused types T and random values v: v ∈ ⟦T⟧ iff the exported
	// JSON Schema validates v.
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		t1 := infer.Infer(randomValue(r, 3))
		t2 := infer.Infer(randomValue(r, 3))
		fused := fusion.Fuse(t1, t2)
		doc, err := schemaDoc(fused)
		if err != nil {
			t.Logf("schemaDoc %s: %v", fused, err)
			return false
		}
		for i := 0; i < 6; i++ {
			v := randomValue(r, 3)
			if types.Member(v, fused) != validate(doc, v) {
				t.Logf("type %s value %s member=%v", fused, value.JSON(v), types.Member(v, fused))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropertyExportValidatesSourceValues(t *testing.T) {
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		v1 := randomValue(r, 3)
		v2 := randomValue(r, 3)
		fused := fusion.Fuse(infer.Infer(v1), infer.Infer(v2))
		doc, err := schemaDoc(fused)
		if err != nil {
			t.Logf("schemaDoc %s: %v", fused, err)
			return false
		}
		return validate(doc, v1) && validate(doc, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExportMapType(t *testing.T) {
	doc := mustDoc(t, types.MustParse("{*: {v: Num}}"))
	if doc["type"] != "object" {
		t.Errorf("type = %v", doc["type"])
	}
	addl, ok := doc["additionalProperties"].(map[string]any)
	if !ok {
		t.Fatalf("additionalProperties = %v", doc["additionalProperties"])
	}
	if addl["type"] != "object" {
		t.Errorf("element schema = %v", addl)
	}
	// The mini validator agrees with Member on the map type.
	m := types.MustParse("{*: Num}")
	mdoc := mustDoc(t, m)
	yes := value.Obj("anything", value.Num(1), "other", value.Num(2))
	no := value.Obj("bad", value.Str("s"))
	if !validate(mdoc, yes) || validate(mdoc, no) {
		t.Errorf("validator disagrees on map type: yes=%v no=%v", validate(mdoc, yes), validate(mdoc, no))
	}
	if types.Member(yes, m) != validate(mdoc, yes) || types.Member(no, m) != validate(mdoc, no) {
		t.Error("validator and Member disagree")
	}
}

// reencode is the encoding/json oracle for the byte contract: out's own
// json.Unmarshal, printed again by json.MarshalIndent.
func reencode(out []byte) ([]byte, error) {
	var v any
	if err := json.Unmarshal(out, &v); err != nil {
		return nil, err
	}
	return json.MarshalIndent(v, "", "  ")
}

// observe feeds v to l through the observer hooks, as the decoder does.
func observe(l *enrich.Lattice, v value.Value) {
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

// TestMarshalSizedExactly: the document is allocated once, at its final
// length, and reads back through encoding/json byte for byte — also
// past the depth the indentation constant covers.
func TestMarshalSizedExactly(t *testing.T) {
	deep := "Num"
	for i := 0; i < 40; i++ {
		deep = "{a: [" + deep + "*], b: Str?}"
	}
	for _, src := range []string{
		"Null", "ε", "[]", "[ε*]", "{}", "{*: {v: Num}}", "Num + Str + [Bool, Null]",
		`{"<&>": Num, "\u2028": Str, "ctl\u0001": Bool}`,
		"variants(type){a: {x: Num}, b: {type: Str}, *: {id: Num}}",
		deep,
	} {
		out, err := Marshal(types.MustParse(src))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if cap(out) != len(out) {
			t.Errorf("%s: %d bytes in a %d-byte buffer", src, len(out), cap(out))
		}
		want, err := reencode(out)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if string(out) != string(want) {
			t.Errorf("%s: output differs from encoding/json\n got: %s\nwant: %s", src, out, want)
		}
	}
}

// TestPropertyAnnotatedExport: with every enrichment monoid on, the
// annotated document is exactly sized, matches encoding/json's bytes,
// and still accepts the values it was inferred from (annotations never
// tighten validation). A nil lattice gives Marshal's bytes.
func TestPropertyAnnotatedExport(t *testing.T) {
	set, err := enrich.ParseSet([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := &rng{s: seed | 1}
		v1, v2 := randomValue(r, 3), randomValue(r, 3)
		fused := fusion.Fuse(infer.Infer(v1), infer.Infer(v2))
		plain, err := Marshal(fused)
		if err != nil {
			t.Logf("Marshal %s: %v", fused, err)
			return false
		}
		if nilLattice, err := MarshalAnnotated(fused, nil); err != nil || string(nilLattice) != string(plain) {
			t.Logf("MarshalAnnotated(%s, nil) differs from Marshal (err %v)", fused, err)
			return false
		}
		l := set.NewLattice()
		observe(l, v1)
		observe(l, v2)
		out, err := MarshalAnnotated(fused, l)
		if err != nil {
			t.Logf("MarshalAnnotated %s: %v", fused, err)
			return false
		}
		want, err := reencode(out)
		if err != nil || string(out) != string(want) || cap(out) != len(out) {
			t.Logf("type %s: annotated output is not canonical or not exactly sized (err %v)\n%s", fused, err, out)
			return false
		}
		var doc map[string]any
		if err := json.Unmarshal(out, &doc); err != nil {
			return false
		}
		return validate(doc, v1) && validate(doc, v2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestExportVariantsPinDiscriminator: each keyed branch pins its tag on
// the discriminator property, adding the property where the branch
// lacks it; wrapper branches and the catch-all are left alone.
func TestExportVariantsPinDiscriminator(t *testing.T) {
	doc := mustDoc(t, types.MustParse("variants(type){a: {x: Num}, b: {type: Str, y: Str?}, *: {id: Num}}"))
	branches := doc["oneOf"].([]any)
	if len(branches) != 3 {
		t.Fatalf("oneOf = %v", branches)
	}
	for i, want := range []string{"a", "b"} {
		props := branches[i].(map[string]any)["properties"].(map[string]any)
		disc := props["type"].(map[string]any)
		if disc["const"] != want || disc["type"] != "string" {
			t.Errorf("branch %d discriminator = %v, want const %q", i, disc, want)
		}
	}
	if _, ok := branches[2].(map[string]any)["properties"].(map[string]any)["type"]; ok {
		t.Error("the catch-all branch must not gain a discriminator")
	}
	wrapper := mustDoc(t, types.MustParse("wrapper{delete: {delete: {id: Num}}, *: {id: Num}}"))
	for _, b := range wrapper["oneOf"].([]any) {
		for k, p := range b.(map[string]any)["properties"].(map[string]any) {
			if _, ok := p.(map[string]any)["const"]; ok {
				t.Errorf("wrapper property %q gained a const", k)
			}
		}
	}
}

// TestMarshalAllocsFlatInDepth: Marshal's allocations do not grow with
// nesting, also past the depth the indentation constant covers, where
// each line's spaces are written in pieces.
func TestMarshalAllocsFlatInDepth(t *testing.T) {
	nested := func(n int) types.Type {
		src := "Num"
		for i := 0; i < n; i++ {
			src = "{a: [" + src + "*], b: Str?}"
		}
		return types.MustParse(src)
	}
	allocs := func(typ types.Type) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := Marshal(typ); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(nested(10))
	for _, n := range []int{15, 20, 40, 80} {
		if got := allocs(nested(n)); got > base {
			t.Errorf("nesting %d: %v allocations, %v at nesting 10", n, got, base)
		}
	}
}
