package jsonschema

import (
	"encoding/json"
	"testing"
	"unicode/utf8"

	"repro/internal/types"
)

// FuzzJSONSchemaCanonical renders arbitrary types of the paper's syntax:
// Marshal must succeed with valid JSON, and — where every key is valid
// UTF-8, so decoding loses nothing — re-encoding the output through
// encoding/json must reproduce it byte for byte.
func FuzzJSONSchemaCanonical(f *testing.F) {
	for _, s := range []string{
		"Null", "Bool", "Num", "Str", "ε", "[]", "[ε*]", "{}",
		"{a: Num, b: Str?}", "[Num, Str]", "[(Num + {E: Str})*]",
		"{*: {v: Num}}", "Num + Str + {x: Bool} + [Null*]",
		`{"<a&b>": Num, "x>y": Str}`,
		`{"q\"uote": Num, "back\\slash": Str}`,
		`{"\u0000\u0001\b\f\n\r\t\u001f": Bool}`,
		`{"\u2028": Num, "\u2029 sep": Null}`,
		`{"ünïcødé": Num, "日本語": [Str*], "emoji 😀": Bool}`,
		"variants(type){a: {x: Num}, b: {type: Str, y: Str?}, *: {id: Num}}",
		`variants(kind){"<tag>": {kind: Str}, "q\"t": {n: Num}}`,
		"wrapper{delete: {delete: {id: Num}}, *: {id: Num, text: Str}}",
		"collapsed{*: {a: Num, b: Str?}}",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		typ, err := types.Parse(src)
		if err != nil {
			return
		}
		out, err := Marshal(typ)
		if err != nil {
			t.Fatalf("Marshal(%s): %v", typ, err)
		}
		if !json.Valid(out) {
			t.Fatalf("Marshal(%s) is not valid JSON:\n%s", typ, out)
		}
		if !keysValidUTF8(typ) {
			return
		}
		want, err := reencode(out)
		if err != nil {
			t.Fatalf("re-encoding Marshal(%s): %v", typ, err)
		}
		if string(out) != string(want) {
			t.Fatalf("Marshal(%s) differs from encoding/json\n got: %s\nwant: %s", typ, out, want)
		}
	})
}

// keysValidUTF8 reports whether every record key, variant key and tag
// in t is valid UTF-8 (json.Unmarshal would otherwise replace bytes).
func keysValidUTF8(t types.Type) bool {
	switch tt := t.(type) {
	case *types.Record:
		for _, f := range tt.Fields() {
			if !utf8.ValidString(f.Key) || !keysValidUTF8(f.Type) {
				return false
			}
		}
	case *types.Tuple:
		for _, e := range tt.Elems() {
			if !keysValidUTF8(e) {
				return false
			}
		}
	case *types.Repeated:
		return keysValidUTF8(tt.Elem())
	case *types.Map:
		return keysValidUTF8(tt.Elem())
	case *types.Union:
		for _, a := range tt.Alts() {
			if !keysValidUTF8(a) {
				return false
			}
		}
	case *types.Variants:
		if !utf8.ValidString(tt.Key()) || (tt.Other() != nil && !keysValidUTF8(tt.Other())) {
			return false
		}
		for _, c := range tt.Cases() {
			if !utf8.ValidString(c.Tag) || !keysValidUTF8(c.Type) {
				return false
			}
		}
	}
	return true
}
