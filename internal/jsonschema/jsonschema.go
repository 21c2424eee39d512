// Package jsonschema exports the inferred types of internal/types to
// JSON Schema (draft-04 core vocabulary). The paper positions its type
// language as "a core part of the JSON Schema language studied in [20]"
// (Pezoa et al., WWW 2016); this exporter makes that relationship
// concrete and lets downstream tools consume inferred schemas.
//
// The mapping:
//
//	Null / Bool / Num / Str    {"type": "null" / "boolean" / "number" / "string"}
//	{a: T, b: U?}              {"type": "object", "properties": ..., "required": ["a"],
//	                            "additionalProperties": false}
//	[T1, ..., Tn]              {"type": "array", "items": [S1, ..., Sn],
//	                            "minItems": n, "maxItems": n, "additionalItems": false}
//	[T*]                       {"type": "array", "items": S}
//	[ε*]                       {"type": "array", "maxItems": 0}
//	{*: T}                     {"type": "object", "additionalProperties": S}
//	T1 + ... + Tn              {"anyOf": [S1, ..., Sn]}
//	variants(k){t: R, ...}     {"oneOf": [R1', ..., Rn', O]} with each Ri'
//	                           pinning the discriminator: properties[k]
//	                           gains {"const": ti} (const is a draft-06
//	                           keyword adopted here because it is the
//	                           idiomatic discriminator encoding; tools
//	                           bound to strict draft-04 read it as an
//	                           unknown — ignored — keyword)
//	wrapper{t: R, ...}         {"oneOf": [R1, ..., Rn, O]} — the single
//	                           required property name is the discriminator
//	ε                          {"not": {}}
//
// additionalProperties is false because inferred record types are
// complete: every key that occurs anywhere in the dataset is present
// (Section 1's "global description" property).
//
// The byte contract: the output is exactly what json.MarshalIndent(doc,
// "", "  ") prints for the document as a map[string]any tree — keys in
// encoding/json's sorted order, encoding/json's string escaping
// (HTML-safe <, > and &, U+2028 and U+2029 escaped, U+FFFD for invalid
// UTF-8) and two-space indentation — but it is written directly, by a
// walk of the type, into one buffer allocated at its final length (a
// sizing pass over the same walk counts it first, writing nothing).
//
// A subtree that repeats is rendered once: the walk numbers the type's
// shapes (types.Shapes), renders each repeated shape once per lattice
// node, indentation depth and whole flag, and on every later repeat
// copies those bytes from earlier in its own buffer. On wikidata's
// ids-as-keys schemas most nodes sit under such a repeat. A node that
// carries a pin ($schema, a variant's const) is always rendered.
//
// The root golden test TestJSONSchemaGolden pins the bytes on every
// generator and policy; TestMarshalMatchesOracle and
// TestNearDuplicatesMatchOracle check them against the writer that
// renders every node (oracle_test.go); and FuzzJSONSchemaCanonical
// checks both that re-encoding the output through encoding/json
// reproduces it and that fuzzed repeats match the oracle.
package jsonschema

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/enrich"
	"repro/internal/jsontext"
	"repro/internal/types"
)

// Marshal renders the JSON Schema for t, including the draft-04 $schema
// marker, as indented JSON.
func Marshal(t types.Type) ([]byte, error) { return MarshalAnnotated(t, nil) }

// MarshalAnnotated renders the JSON Schema for t with enrichment
// annotations (docs/ENRICHMENT.md) woven in, including the draft-04
// $schema marker, as indented JSON. The lattice is walked in parallel
// with the type: record fields descend into the matching lattice field,
// array elements into the shared element node. Annotations are placed
// by kind — numeric ranges on number schemas, format on string schemas,
// length statistics on array schemas — and whole-value annotations
// (approximate distinct counts, Bloom filters) on the top schema node
// of each path, so a union is annotated once rather than once per
// alternative. Below a map type, and on ε, nothing is annotated.
// Annotations never overwrite structural keywords, and never tighten
// validation: minimum/maximum and format reflect only what was
// observed. A nil lattice yields the same bytes as Marshal.
func MarshalAnnotated(t types.Type, l *enrich.Lattice) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("jsonschema: nil type")
	}
	shapes, renders := types.NumberShapes(t), map[renderKey]span{}
	size := writer{sizing: true, shapes: shapes, renders: renders, annotated: l != nil}
	size.root(t, l.Cursor())
	if size.err != nil {
		return nil, size.err
	}
	w := writer{buf: make([]byte, 0, size.n), shapes: shapes, renders: renders, annotated: l != nil, notes: size.notes}
	w.root(t, l.Cursor())
	return w.buf, w.err
}

// A writer renders one document. The same walk runs twice: first with
// sizing set, when nothing is written and n counts the bytes, then into
// a buffer of exactly that length.
//
// Both passes render a node whose shape repeats (types.Shapes) once per
// renderKey, which holds all its bytes depend on, and copy those bytes
// on every later repeat: the sizing pass records each rendering's
// length in renders, the writing pass its offset. A node that carries
// a pin is always rendered. The two passes make the same copy
// decisions, so they render the same nodes in the same order.
type writer struct {
	buf     []byte
	sizing  bool
	n       int
	err     error
	shapes  *types.Shapes
	renders map[renderKey]span
	// With a lattice, the sizing pass queues every rendered node's
	// extras in notes and the writing pass takes them back in the same
	// walk order, so each annotation is folded and rendered once.
	annotated bool
	notes     [][]field
}

// A renderKey names the bytes of a node: its shape, the lattice node
// its cursor stands on, its indentation depth and its whole flag.
type renderKey struct {
	c     enrich.Cursor
	shape int32
	depth int32
	whole bool
}

// A span is where a rendering sits in the document: its offset, -1
// until the writing pass has written it, and its length.
type span struct{ start, n int }

// A field is an object entry beyond a node's structural keys, its
// value already encoded.
type field struct {
	key string
	val []byte
}

// A pin is a key a parent adds to a child's schema object — $schema at
// the root, const on a keyed variant's discriminator — which wins over
// any annotation of the same name.
type pin struct {
	key string
	val string
}

func (w *writer) root(t types.Type, c enrich.Cursor) {
	w.node(t, 0, c, 0, true, pin{"$schema", "http://json-schema.org/draft-04/schema#"})
}

func (w *writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// node writes the schema object of t, whose position in the shape
// numbering is pos, at indentation depth. whole marks the top schema
// node of a path: only there do whole-value annotations attach (union
// alternatives and variant branches pass false, so the union node
// carries them once).
func (w *writer) node(t types.Type, pos int, c enrich.Cursor, depth int, whole bool, p pin) {
	if w.err != nil {
		return
	}
	if v, ok := t.(*types.Variants); ok && v.Collapsed() {
		w.node(v.Other(), pos+1, c, depth, whole, p)
		return
	}
	id, shared := w.shapes.Shared(t, pos)
	if !shared || p.key != "" {
		w.render(t, pos, c, depth, whole, p)
		return
	}
	k := renderKey{c: c, shape: int32(id), depth: int32(depth), whole: whole}
	sp, seen := w.renders[k]
	switch {
	case w.sizing && seen:
		w.n += sp.n
	case w.sizing:
		start := w.n
		w.render(t, pos, c, depth, whole, p)
		w.renders[k] = span{start: -1, n: w.n - start}
	case sp.start >= 0:
		w.buf = append(w.buf, w.buf[sp.start:sp.start+sp.n]...)
	default:
		sp.start = len(w.buf)
		w.render(t, pos, c, depth, whole, p)
		w.renders[k] = sp
	}
}

// render writes the schema object of t as node does, without looking
// for an earlier rendering of t itself.
func (w *writer) render(t types.Type, pos int, c enrich.Cursor, depth int, whole bool, p pin) {
	o := object{depth: depth, extra: w.extras(t, c, depth, whole, p)}
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
		w.record(&o, tt, pos, c, "", "")
	case *types.Tuple:
		if tt.Len() > 0 {
			w.key(&o, "additionalItems")
			w.raw("false")
			w.key(&o, "items")
			w.raw("[")
			at := pos + 1
			for i, e := range tt.Elems() {
				// Tuple positions share the lattice's collapsed element
				// node, mirroring the fusion rule that merges array
				// positions.
				w.item(depth+1, i)
				w.node(e, at, c.Elem(), depth+2, true, pin{})
				at = w.shapes.Skip(e, at)
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
		// A map schema collapses all keys into one element schema; the
		// lattice keeps per-key nodes, so there is no single node to
		// annotate the element with — stop annotating below here.
		w.key(&o, "additionalProperties")
		w.node(tt.Elem(), pos+1, enrich.Cursor{}, depth+1, true, pin{})
		w.key(&o, "type")
		w.str("object")
	case *types.Repeated:
		if _, isEmpty := tt.Elem().(types.EmptyType); isEmpty {
			w.key(&o, "maxItems")
			w.num(0)
		} else {
			w.key(&o, "items")
			w.node(tt.Elem(), pos+1, c.Elem(), depth+1, true, pin{})
		}
		w.key(&o, "type")
		w.str("array")
	case *types.Union:
		w.key(&o, "anyOf")
		w.raw("[")
		at := pos + 1
		for i, a := range tt.Alts() {
			w.item(depth+1, i)
			w.node(a, at, c, depth+2, false, pin{})
			at = w.shapes.Skip(a, at)
		}
		w.newline(depth + 1)
		w.raw("]")
	case *types.Variants:
		// Every branch sits at the same path, so each descends with the
		// same cursor (record fields pick up their per-path annotations
		// through c.Field) and whole-value annotations attach once, on
		// the oneOf node.
		w.key(&o, "oneOf")
		w.raw("[")
		at := pos + 1
		for i, vc := range tt.Cases() {
			w.item(depth+1, i)
			b := object{depth: depth + 2}
			w.raw("{")
			w.record(&b, vc.Type, at, c, tt.Key(), vc.Tag)
			w.close(&b)
			at = w.shapes.End(at)
		}
		if tt.Other() != nil {
			w.item(depth+1, tt.Len())
			w.node(tt.Other(), at, c, depth+2, false, pin{})
		}
		w.newline(depth + 1)
		w.raw("]")
	default:
		w.fail(fmt.Errorf("jsonschema: unknown type %T", t))
		return
	}
	w.close(&o)
}

var basicNames = map[types.Basic]string{
	types.Null: "null", types.Bool: "boolean", types.Num: "number", types.Str: "string",
}

// record writes the structural keys of a record schema into o. A keyed
// variant's branch passes its discriminator key and tag: that property
// gains {"const": tag}, or is added as {"const": tag, "type": "string"}
// when the branch lacks it. Wrapper branches pass key == "" — their
// required single property name already discriminates. pos is r's
// position in the shape numbering.
func (w *writer) record(o *object, r *types.Record, pos int, c enrich.Cursor, key, tag string) {
	w.key(o, "additionalProperties")
	w.raw("false")
	w.key(o, "properties")
	props := object{depth: o.depth + 1}
	w.raw("{")
	pinned := key == ""
	required := false
	at := pos + 1
	for _, f := range r.Fields() {
		if !pinned && key < f.Key {
			w.discriminator(&props, key, tag)
			pinned = true
		}
		w.key(&props, f.Key)
		if f.Key == key {
			w.node(f.Type, at, c.Field(f.Key), props.depth+1, true, pin{"const", tag})
			pinned = true
		} else {
			w.node(f.Type, at, c.Field(f.Key), props.depth+1, true, pin{})
		}
		at = w.shapes.Skip(f.Type, at)
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

// discriminator adds the pinned property a keyed variant's branch lacks.
func (w *writer) discriminator(props *object, key, tag string) {
	w.key(props, key)
	o := object{depth: props.depth + 1}
	w.raw("{")
	w.key(&o, "const")
	w.str(tag)
	w.key(&o, "type")
	w.str("string")
	w.close(&o)
}

// extras returns a node's non-structural keys, sorted and rendered. The
// writing pass of an annotated document takes them from the sizing
// pass's notes.
func (w *writer) extras(t types.Type, c enrich.Cursor, depth int, whole bool, p pin) []field {
	if w.annotated && !w.sizing {
		e := w.notes[0]
		w.notes = w.notes[1:]
		return e
	}
	e := w.annotations(t, c, depth, whole, p)
	if w.annotated {
		w.notes = append(w.notes, e)
	}
	return e
}

// annotations gathers the cursor's annotations of t's kind, then, when
// whole, its whole-value annotations — earlier ones winning a key
// collision — and the pin over both, and renders each value as
// MarshalIndent does inside the whole document. ε carries no
// annotations.
func (w *writer) annotations(t types.Type, c enrich.Cursor, depth int, whole bool, p pin) []field {
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
	if len(anns) == 0 {
		return nil
	}
	keys := make([]string, 0, len(anns))
	for k := range anns {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]field, len(keys))
	for i, k := range keys {
		if k == p.key {
			// A pin is a string, quoted as encoding/json quotes it.
			out[i] = field{key: k, val: jsontext.AppendQuote(nil, p.val)}
			continue
		}
		val, err := json.MarshalIndent(anns[k], indent(depth+1), "  ")
		if err != nil {
			w.fail(fmt.Errorf("jsonschema: annotation %q: %w", k, err))
		}
		out[i] = field{key: k, val: val}
	}
	return out
}

// annotationKind is the lattice kind whose annotations attach to t's
// own schema node beyond the whole-value ones.
func annotationKind(t types.Type) (enrich.Kind, bool) {
	switch t {
	case types.Num:
		return enrich.KindNumber, true
	case types.Str:
		return enrich.KindString, true
	}
	switch t.(type) {
	case *types.Tuple, *types.Repeated:
		return enrich.KindArray, true
	}
	return 0, false
}

// An object is a JSON object being written: its structural keys come
// in sorted order through key, which first flushes the extras that sort
// before them.
type object struct {
	depth   int
	entries int
	extra   []field
}

// key starts the entry for structural key k. Pending extras sorting
// before k are written first; an extra named k is dropped, since a
// structural key always wins.
func (w *writer) key(o *object, k string) {
	for len(o.extra) > 0 && o.extra[0].key <= k {
		e := o.extra[0]
		o.extra = o.extra[1:]
		if e.key != k {
			w.entry(o, e.key)
			w.bytes(e.val)
		}
	}
	w.entry(o, k)
}

func (w *writer) entry(o *object, k string) {
	w.item(o.depth, o.entries)
	o.entries++
	w.str(k)
	w.raw(": ")
}

func (w *writer) close(o *object) {
	for _, e := range o.extra {
		w.entry(o, e.key)
		w.bytes(e.val)
	}
	if o.entries > 0 {
		w.newline(o.depth)
	}
	w.raw("}")
}

// item starts element i of an array or object whose opening bracket
// sits at indentation depth.
func (w *writer) item(depth, i int) {
	if i > 0 {
		w.raw(",")
	}
	w.newline(depth + 1)
}

// newline ends the line and indents the next one to depth, writing the
// spaces from one constant in pieces however deep the line is.
func (w *writer) newline(depth int) {
	if w.sizing {
		w.n += 1 + 2*depth
		return
	}
	w.buf = append(w.buf, '\n')
	for n := 2 * depth; n > 0; n -= len(spaces) {
		w.buf = append(w.buf, spaces[:min(n, len(spaces))]...)
	}
}

func (w *writer) raw(s string) {
	if w.sizing {
		w.n += len(s)
		return
	}
	w.buf = append(w.buf, s...)
}

func (w *writer) bytes(b []byte) {
	if w.sizing {
		w.n += len(b)
		return
	}
	w.buf = append(w.buf, b...)
}

func (w *writer) num(n int) {
	if w.sizing {
		for w.n++; n >= 10; n /= 10 {
			w.n++
		}
		return
	}
	w.buf = strconv.AppendInt(w.buf, int64(n), 10)
}

// str writes s as a JSON string exactly as encoding/json encodes it.
func (w *writer) str(s string) {
	if w.sizing {
		w.n += jsontext.QuotedLen(s)
		return
	}
	w.buf = jsontext.AppendQuote(w.buf, s)
}

const spaces = "                                                                "

// indent returns the leading whitespace of a line at depth, the prefix
// json.MarshalIndent takes for an annotation's value.
func indent(depth int) string {
	if 2*depth <= len(spaces) {
		return spaces[:2*depth]
	}
	return strings.Repeat("  ", depth)
}
