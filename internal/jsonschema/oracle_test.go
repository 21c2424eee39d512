package jsonschema

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"

	"repro/internal/dataset"
	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/jsontext"
	"repro/internal/pipeline"
	"repro/internal/types"
	"repro/internal/value"
)

// The oracle is the writer as it was before shape numbering: one plain
// walk of the type that renders every node, repeats included, into a
// growing buffer, and folds each node's annotations where it meets
// them. It is kept, test-only, as the reference Marshal and
// MarshalAnnotated must match byte for byte (TestMarshalMatchesOracle,
// TestNearDuplicatesMatchOracle, FuzzJSONSchemaCanonical).
func oracleMarshal(t types.Type, l *enrich.Lattice) ([]byte, error) {
	var o oracle
	o.node(t, l.Cursor(), 0, true, pin{"$schema", "http://json-schema.org/draft-04/schema#"})
	return o.buf, o.err
}

type oracle struct {
	buf []byte
	err error
}

func (w *oracle) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *oracle) node(t types.Type, c enrich.Cursor, depth int, whole bool, p pin) {
	if w.err != nil {
		return
	}
	if v, ok := t.(*types.Variants); ok && v.Collapsed() {
		w.node(v.Other(), c, depth, whole, p)
		return
	}
	o := object{depth: depth, extra: w.annotations(t, c, depth, whole, p)}
	w.raw("{")
	switch tt := t.(type) {
	case types.Basic:
		name, ok := basicNames[tt]
		if !ok {
			w.fail(fmt.Errorf("jsonschema: unknown basic type %v", tt))
			return
		}
		w.key(&o, "type")
		w.str(name)
	case types.EmptyType:
		w.key(&o, "not")
		w.raw("{}")
	case *types.Record:
		w.record(&o, tt, c, "", "")
	case *types.Tuple:
		if tt.Len() > 0 {
			w.key(&o, "additionalItems")
			w.raw("false")
			w.key(&o, "items")
			w.raw("[")
			for i, e := range tt.Elems() {
				w.item(depth+1, i)
				w.node(e, c.Elem(), depth+2, true, pin{})
			}
			w.newline(depth + 1)
			w.raw("]")
		}
		w.key(&o, "maxItems")
		w.num(tt.Len())
		w.key(&o, "minItems")
		w.num(tt.Len())
		w.key(&o, "type")
		w.str("array")
	case *types.Map:
		w.key(&o, "additionalProperties")
		w.node(tt.Elem(), enrich.Cursor{}, depth+1, true, pin{})
		w.key(&o, "type")
		w.str("object")
	case *types.Repeated:
		if _, isEmpty := tt.Elem().(types.EmptyType); isEmpty {
			w.key(&o, "maxItems")
			w.num(0)
		} else {
			w.key(&o, "items")
			w.node(tt.Elem(), c.Elem(), depth+1, true, pin{})
		}
		w.key(&o, "type")
		w.str("array")
	case *types.Union:
		w.key(&o, "anyOf")
		w.raw("[")
		for i, a := range tt.Alts() {
			w.item(depth+1, i)
			w.node(a, c, depth+2, false, pin{})
		}
		w.newline(depth + 1)
		w.raw("]")
	case *types.Variants:
		w.key(&o, "oneOf")
		w.raw("[")
		for i, vc := range tt.Cases() {
			w.item(depth+1, i)
			b := object{depth: depth + 2}
			w.raw("{")
			w.record(&b, vc.Type, c, tt.Key(), vc.Tag)
			w.close(&b)
		}
		if tt.Other() != nil {
			w.item(depth+1, tt.Len())
			w.node(tt.Other(), c, depth+2, false, pin{})
		}
		w.newline(depth + 1)
		w.raw("]")
	default:
		w.fail(fmt.Errorf("jsonschema: unknown type %T", t))
		return
	}
	w.close(&o)
}

func (w *oracle) record(o *object, r *types.Record, c enrich.Cursor, key, tag string) {
	w.key(o, "additionalProperties")
	w.raw("false")
	w.key(o, "properties")
	props := object{depth: o.depth + 1}
	w.raw("{")
	pinned := key == ""
	required := false
	for _, f := range r.Fields() {
		if !pinned && key < f.Key {
			w.discriminator(&props, key, tag)
			pinned = true
		}
		w.key(&props, f.Key)
		if f.Key == key {
			w.node(f.Type, c.Field(f.Key), props.depth+1, true, pin{"const", tag})
			pinned = true
		} else {
			w.node(f.Type, c.Field(f.Key), props.depth+1, true, pin{})
		}
		required = required || !f.Optional
	}
	if !pinned {
		w.discriminator(&props, key, tag)
	}
	w.close(&props)
	if required {
		w.key(o, "required")
		w.raw("[")
		i := 0
		for _, f := range r.Fields() {
			if !f.Optional {
				w.item(o.depth+1, i)
				w.str(f.Key)
				i++
			}
		}
		w.newline(o.depth + 1)
		w.raw("]")
	}
	w.key(o, "type")
	w.str("object")
}

func (w *oracle) discriminator(props *object, key, tag string) {
	w.key(props, key)
	o := object{depth: props.depth + 1}
	w.raw("{")
	w.key(&o, "const")
	w.str(tag)
	w.key(&o, "type")
	w.str("string")
	w.close(&o)
}

func (w *oracle) annotations(t types.Type, c enrich.Cursor, depth int, whole bool, p pin) []field {
	var anns map[string]any
	if kind, ok := annotationKind(t); ok {
		anns = c.Annotations(kind)
	}
	if _, empty := t.(types.EmptyType); whole && !empty {
		for k, v := range c.Annotations(enrich.KindValue) {
			if _, dup := anns[k]; !dup {
				if anns == nil {
					anns = make(map[string]any)
				}
				anns[k] = v
			}
		}
	}
	if p.key != "" {
		if anns == nil {
			anns = make(map[string]any, 1)
		}
		anns[p.key] = p.val
	}
	keys := make([]string, 0, len(anns))
	for k := range anns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []field
	for _, k := range keys {
		val, err := json.MarshalIndent(anns[k], indent(depth+1), "  ")
		if err != nil {
			w.fail(fmt.Errorf("jsonschema: annotation %q: %w", k, err))
		}
		out = append(out, field{key: k, val: val})
	}
	return out
}

func (w *oracle) key(o *object, k string) {
	for len(o.extra) > 0 && o.extra[0].key <= k {
		e := o.extra[0]
		o.extra = o.extra[1:]
		if e.key != k {
			w.entry(o, e.key)
			w.buf = append(w.buf, e.val...)
		}
	}
	w.entry(o, k)
}

func (w *oracle) entry(o *object, k string) {
	w.item(o.depth, o.entries)
	o.entries++
	w.str(k)
	w.raw(": ")
}

func (w *oracle) close(o *object) {
	for _, e := range o.extra {
		w.entry(o, e.key)
		w.buf = append(w.buf, e.val...)
	}
	if o.entries > 0 {
		w.newline(o.depth)
	}
	w.raw("}")
}

func (w *oracle) item(depth, i int) {
	if i > 0 {
		w.raw(",")
	}
	w.newline(depth + 1)
}

func (w *oracle) newline(depth int) {
	w.buf = append(w.buf, '\n')
	for i := 0; i < depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

func (w *oracle) raw(s string) { w.buf = append(w.buf, s...) }
func (w *oracle) num(n int)    { w.buf = strconv.AppendInt(w.buf, int64(n), 10) }
func (w *oracle) str(s string) { w.buf = jsontext.AppendQuote(w.buf, s) }

// requireOracle checks Marshal(t) and, with a lattice, MarshalAnnotated
// against the oracle, and that each is exactly sized.
func requireOracle(t *testing.T, name string, typ types.Type, l *enrich.Lattice) {
	t.Helper()
	got, err := MarshalAnnotated(typ, l)
	if err != nil {
		t.Fatalf("%s: MarshalAnnotated: %v", name, err)
	}
	want, err := oracleMarshal(typ, l)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: output differs from the oracle at byte %d\n got: %s\nwant: %s", name, firstDiff(got, want), got, want)
	}
	if cap(got) != len(got) {
		t.Errorf("%s: %d bytes in a %d-byte buffer", name, len(got), cap(got))
	}
}

func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// TestMarshalMatchesOracle: on every generator's schema under the
// paper's policy, tuples and tagged unions, plain and with every
// enrichment monoid, the export is the oracle's bytes.
func TestMarshalMatchesOracle(t *testing.T) {
	all, err := enrich.ParseSet([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	policies := []struct {
		name string
		fz   fusion.Options
	}{{"paper", fusion.Options{}}, {"tuples", fusion.Options{Tuples: true}}, {"tagged", fusion.Options{Tagged: true}}}
	for _, gen := range dataset.Names() {
		g, err := dataset.New(gen)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 300, 5)
		for _, p := range policies {
			for _, set := range []*enrich.Set{nil, all} {
				env := &pipeline.Env{Fusion: p.fz, Workers: 2, Enrich: set}
				acc, _, err := pipeline.Run(context.Background(), env, pipeline.SliceFeed([][]byte{data}))
				if err != nil {
					t.Fatal(err)
				}
				res := pipeline.Fold(acc)
				requireOracle(t, fmt.Sprintf("%s/%s/enriched=%v", gen, p.name, set != nil), res.Fused, res.Enrichment)
			}
		}
	}
}

// nearDuplicates are types whose subtrees repeat, or nearly repeat: one
// subtree at several depths, and pairs of copies that differ only in
// one optional flag, one key, one leaf kind, one variants tag or one
// pin (a keyed variant's const).
var nearDuplicates = []string{
	"{a: {x: Num, y: [Str*]}, b: {c: {x: Num, y: [Str*]}}, d: [{x: Num, y: [Str*]}*], e: [[{x: Num, y: [Str*]}*]*]}",
	"{a: {x: Num, y: Str}, b: {x: Num, y: Str?}, c: {x: Num, y: Str}}",
	"{a: {x: Num, y: Str}, b: {x: Num, z: Str}, c: {x: Num, y: Str}}",
	"{a: {x: Num, y: [Str*]}, b: {x: Num, y: [Bool*]}, c: {x: Num, y: [Str*]}}",
	"{a: variants(type){p: {type: Str, q: {n: Num}}}, b: variants(type){r: {type: Str, q: {n: Num}}}}",
	"{a: wrapper{d: {d: {id: Num}}, e: {e: {id: Num}}}, b: wrapper{d: {d: {id: Num}}, f: {f: {id: Num}}}}",
	"variants(type){a: {type: {k: Num} + Str, x: {k: Num}}, b: {type: {k: Num} + Str, x: {k: Num}}, *: {type: {k: Num} + Str}}",
	"[{k: Num} + [Str*], {k: Num} + [Str*], {k: Num?} + [Str*], [{k: Num} + [Str*]*]]",
	"{a: {*: {v: Num}}, b: {*: {v: Num?}}, c: [{*: {v: Num}}*], d: collapsed{*: {v: Num}}, e: {v: Num}}",
	"{a: [[Num, Str]*], b: [[Num, Str], [Num, Str]], c: [[Num, Bool]*]}",
}

// TestNearDuplicatesMatchOracle: on hand-built repeats and
// near-repeats, plain and under a lattice whose paths annotate equal
// subtrees differently, the export is the oracle's bytes.
func TestNearDuplicatesMatchOracle(t *testing.T) {
	all, err := enrich.ParseSet([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range nearDuplicates {
		typ := types.MustParse(src)
		requireOracle(t, src, typ, nil)
		l := all.NewLattice()
		r := rand.New(rand.NewSource(int64(len(src))))
		for i := 0; i < 4; i++ {
			if v, ok := types.Witness(typ, r); ok {
				observe(l, v)
				observe(l, bump(v))
			}
		}
		requireOracle(t, src+" (annotated)", typ, l)
	}
}

// bump returns v with every number scaled by its depth, so equal
// subtrees at different paths observe different ranges.
func bump(v value.Value) value.Value { return bumpAt(v, 2) }

func bumpAt(v value.Value, k float64) value.Value {
	switch vv := v.(type) {
	case value.Num:
		return value.Num(float64(vv)*k + k)
	case *value.Record:
		fs := make([]value.Field, 0, vv.Len())
		for i, f := range vv.Fields() {
			fs = append(fs, value.Field{Key: f.Key, Value: bumpAt(f.Value, k+float64(i))})
		}
		return value.MustRecord(fs...)
	case value.Array:
		out := make(value.Array, len(vv))
		for i, e := range vv {
			out[i] = bumpAt(e, k+1)
		}
		return out
	}
	return v
}
