package types

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/jsontext"
)

// The codec serializes types to a small JSON document format so that
// inferred schemas can be persisted and exchanged (the public Repository
// stores per-partition schemas this way). This is
// distinct from the JSON Schema export in internal/jsonschema: the codec
// is a loss-free round trip of our own AST.
//
// Every type is an object whose "k" member names its kind; members
// appear in this order, and those in brackets only when non-empty,
// non-nil or true:
//
//	{"k": "null" | "bool" | "num" | "str" | "empty"}
//	{"k": "record"[, "fields": [{"key": K, "type": T[, "opt": true]}, ...]]}
//	{"k": "tuple"[, "elems": [T, ...]]}
//	{"k": "rep" | "map", "elem": T}
//	{"k": "union", "alts": [T, T, ...]}
//	{"k": "variants"[, "elem": Other][, "key": K][, "wrapper": true]
//	    [, "collapsed": true][, "cases": [{"tag": G, "type": R}, ...]]}
//
// The writer appends the bytes json.Marshal would give for the document
// (strings through jsontext.AppendQuote). Like the JSON Schema export it
// walks the type twice, first counting the bytes, then writing them into
// a buffer grown once to fit, and in both passes renders a subtree whose
// shape repeats (Shapes) once per indentation depth, copying those
// bytes from its own buffer on every later repeat. The reader decodes
// straight off the lexer's tokens through the constructors: it accepts
// the members in any order, with any whitespace, and rejects unknown,
// repeated and case-folded member names and members the kind does not
// take, so it accepts no document encoding/json would reject.

// MarshalJSON encodes the type as a JSON document that UnmarshalJSON
// round-trips.
func MarshalJSON(t Type) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("types: cannot marshal nil type")
	}
	return encode(nil, t, 0, false), nil
}

// AppendIndentJSON appends t's codec document to dst laid out as
// json.Encoder with SetIndent("", "  ") lays it out, the type's opening
// brace on a line indented to depth. t must not be nil.
func AppendIndentJSON(dst []byte, t Type, depth int) []byte {
	return encode(dst, t, depth, true)
}

// encode appends t's document to dst, compact or indented: a sizing
// pass counts its bytes, dst grows once to fit them, and a writing pass
// appends them.
func encode(dst []byte, t Type, depth int, indent bool) []byte {
	shapes := NumberShapes(t)
	e := encoder{sizing: true, indent: indent, shapes: shapes, latest: make([]int32, shapes.Len())}
	e.typ(t, 0, depth)
	e.buf, e.sizing = slices.Grow(dst, e.n), false
	e.typ(t, 0, depth)
	return e.buf
}

// encoder writes a codec document, or with sizing set counts its bytes
// in n. A subtree whose shape repeats is rendered once per indentation
// depth (any depth, in a compact document) and copied after that: the
// sizing pass records each rendering's length, the writing pass its
// offset, and both make the same copy decisions.
type encoder struct {
	buf    []byte
	n      int
	sizing bool
	indent bool
	shapes *Shapes
	// renders holds the renderings of repeated shapes, each chained to
	// the one of the same shape before it; latest holds, by shape id,
	// 1 + the index of the shape's last, 0 for none.
	renders []rendering
	latest  []int32
}

// A rendering is where the bytes of one shape at one depth sit in the
// document: their offset, -1 until the writing pass has written them,
// and their length.
type rendering struct {
	start, n     int
	depth, prior int32
}

// typ writes t's object, whose opening brace sits at indentation depth;
// pos is t's position in the shape numbering.
func (e *encoder) typ(t Type, pos, depth int) {
	id, shared := e.shapes.Shared(t, pos)
	if !shared {
		e.render(t, pos, depth)
		return
	}
	key := int32(0)
	if e.indent {
		key = int32(depth)
	}
	i := e.latest[id]
	for i != 0 && e.renders[i-1].depth != key {
		i = e.renders[i-1].prior
	}
	switch {
	case e.sizing && i != 0:
		e.n += e.renders[i-1].n
	case e.sizing:
		start := e.n
		e.render(t, pos, depth)
		e.renders = append(e.renders, rendering{start: -1, n: e.n - start, depth: key, prior: e.latest[id]})
		e.latest[id] = int32(len(e.renders))
	case e.renders[i-1].start >= 0:
		r := e.renders[i-1]
		e.buf = append(e.buf, e.buf[r.start:r.start+r.n]...)
	default:
		e.renders[i-1].start = len(e.buf)
		e.render(t, pos, depth)
	}
}

// render writes t's object as typ does, without looking for an earlier
// rendering of t itself.
func (e *encoder) render(t Type, pos, depth int) {
	e.byte('{')
	e.member(depth, false, "k")
	switch tt := t.(type) {
	case Basic:
		switch tt {
		case Null:
			e.raw(`"null"`)
		case Bool:
			e.raw(`"bool"`)
		case Num:
			e.raw(`"num"`)
		case Str:
			e.raw(`"str"`)
		default:
			panic(fmt.Sprintf("types: unknown basic type %d", tt))
		}
	case EmptyType:
		e.raw(`"empty"`)
	case *Record:
		e.raw(`"record"`)
		if len(tt.fields) > 0 {
			e.member(depth, true, "fields")
			e.byte('[')
			at := pos + 1
			for i, f := range tt.fields {
				e.elem(depth+1, i)
				e.byte('{')
				e.member(depth+2, false, "key")
				e.quote(f.Key)
				e.member(depth+2, true, "type")
				e.typ(f.Type, at, depth+3)
				at = e.shapes.Skip(f.Type, at)
				if f.Optional {
					e.member(depth+2, true, "opt")
					e.raw("true")
				}
				e.end(depth+2, '}')
			}
			e.end(depth+1, ']')
		}
	case *Tuple:
		e.raw(`"tuple"`)
		e.types(pos, depth, "elems", tt.elems)
	case *Repeated:
		e.raw(`"rep"`)
		e.member(depth, true, "elem")
		e.typ(tt.elem, pos+1, depth+1)
	case *Map:
		e.raw(`"map"`)
		e.member(depth, true, "elem")
		e.typ(tt.elem, pos+1, depth+1)
	case *Union:
		e.raw(`"union"`)
		e.types(pos, depth, "alts", tt.alts)
	case *Variants:
		e.raw(`"variants"`)
		if tt.other != nil {
			// Other is numbered after the cases.
			at := pos + 1
			for range tt.cases {
				at = e.shapes.End(at)
			}
			e.member(depth, true, "elem")
			e.typ(tt.other, at, depth+1)
		}
		if tt.key != "" {
			e.member(depth, true, "key")
			e.quote(tt.key)
		}
		if tt.wrapper {
			e.member(depth, true, "wrapper")
			e.raw("true")
		}
		if tt.collapsed {
			e.member(depth, true, "collapsed")
			e.raw("true")
		}
		if len(tt.cases) > 0 {
			e.member(depth, true, "cases")
			e.byte('[')
			at := pos + 1
			for i, c := range tt.cases {
				e.elem(depth+1, i)
				e.byte('{')
				e.member(depth+2, false, "tag")
				e.quote(c.Tag)
				e.member(depth+2, true, "type")
				e.typ(c.Type, at, depth+3)
				at = e.shapes.End(at)
				e.end(depth+2, '}')
			}
			e.end(depth+1, ']')
		}
	default:
		panic(fmt.Sprintf("types: unknown type %T", t))
	}
	e.end(depth, '}')
}

// types writes the array member name of ts, the children of the node
// at position pos, omitted when ts is empty.
func (e *encoder) types(pos, depth int, name string, ts []Type) {
	if len(ts) == 0 {
		return
	}
	e.member(depth, true, name)
	e.byte('[')
	at := pos + 1
	for i, t := range ts {
		e.elem(depth+1, i)
		e.typ(t, at, depth+2)
		at = e.shapes.Skip(t, at)
	}
	e.end(depth+1, ']')
}

// member starts the member name of an object whose opening brace sits
// at depth; later is false for the first member.
func (e *encoder) member(depth int, later bool, name string) {
	if later {
		e.byte(',')
	}
	e.newline(depth + 1)
	e.byte('"')
	e.raw(name)
	e.raw(`":`)
	if e.indent {
		e.byte(' ')
	}
}

// elem starts element i of an array whose opening bracket sits at depth.
func (e *encoder) elem(depth, i int) {
	if i > 0 {
		e.byte(',')
	}
	e.newline(depth + 1)
}

// end closes an object or array whose opening bracket sits at depth.
func (e *encoder) end(depth int, c byte) {
	e.newline(depth)
	e.byte(c)
}

func (e *encoder) newline(depth int) {
	if !e.indent {
		return
	}
	if e.sizing {
		e.n += 1 + 2*depth
		return
	}
	e.buf = append(e.buf, '\n')
	for i := 0; i < depth; i++ {
		e.buf = append(e.buf, ' ', ' ')
	}
}

func (e *encoder) byte(c byte) {
	if e.sizing {
		e.n++
		return
	}
	e.buf = append(e.buf, c)
}

func (e *encoder) raw(s string) {
	if e.sizing {
		e.n += len(s)
		return
	}
	e.buf = append(e.buf, s...)
}

func (e *encoder) quote(s string) {
	if e.sizing {
		e.n += jsontext.QuotedLen(s)
		return
	}
	e.buf = jsontext.AppendQuote(e.buf, s)
}

// UnmarshalJSON decodes a type previously encoded with MarshalJSON.
// Nothing but whitespace may follow the document.
func UnmarshalJSON(data []byte) (Type, error) {
	l := jsontext.AcquireLexerBytes(data)
	defer l.Release()
	l.RawStrings(true)
	t, err := ReadJSON(l, 0)
	if err != nil {
		return nil, err
	}
	if tok, err := l.Next(); err != nil || tok.Kind != jsontext.TokEOF {
		if err == nil {
			err = fmt.Errorf("trailing data at offset %d", tok.Offset)
		}
		return nil, fmt.Errorf("types: decoding type: %w", err)
	}
	return t, nil
}

// ReadJSON decodes the codec document of one type from the next tokens
// of l and leaves l just past it, so a reader of a larger document (a
// Repository snapshot) decodes its types in place. depth is the number
// of arrays and objects enclosing the type, counted toward
// jsontext.MaxNesting.
func ReadJSON(l *jsontext.Lexer, depth int) (Type, error) {
	d := decoder{l: l}
	tok, err := l.Next()
	if err == nil {
		var t Type
		if t, err = d.typ(tok, depth); err == nil {
			return t, nil
		}
	}
	if syn := (*jsontext.SyntaxError)(nil); errors.As(err, &syn) {
		err = fmt.Errorf("types: decoding type: %w", err)
	}
	return nil, err
}

// The member names of a type object; bit i of a member set is
// typeMembers[i].
var typeMembers = []string{"k", "fields", "elems", "elem", "alts", "key", "wrapper", "collapsed", "cases"}

const (
	mK = 1 << iota
	mFields
	mElems
	mElem
	mAlts
	mKey
	mWrapper
	mCollapsed
	mCases
)

// The kinds, as "k" names them, and the members each takes besides "k".
var (
	kindNames   = []string{"null", "bool", "num", "str", "empty", "record", "tuple", "rep", "map", "union", "variants"}
	kindMembers = []uint64{0, 0, 0, 0, 0, mFields, mElems, mElem, mElem, mAlts, mElem | mKey | mWrapper | mCollapsed | mCases}
)

// Indices into kindNames.
const (
	kNull = iota
	kBool
	kNum
	kStr
	kEmpty
	kRecord
	kTuple
	kRep
	kMap
	kUnion
	kVariants
)

var (
	fieldMembers = []string{"key", "type", "opt"}
	caseMembers  = []string{"tag", "type"}
)

// decoder reads codec documents off a lexer. Arrays decode onto shared
// stacks, so each record, tuple, union and variants takes one
// exact-size slice whatever its length.
type decoder struct {
	l      *jsontext.Lexer
	fields []Field
	types  []Type
	cases  []Variant
}

// open checks that tok opens a container of the given kind one level
// below depth and returns the container's depth.
func (d *decoder) open(tok jsontext.Token, kind jsontext.TokenKind, depth int) (int, error) {
	if tok.Kind != kind {
		return 0, &jsontext.SyntaxError{Offset: tok.Offset, Msg: fmt.Sprintf("expected %s, got %s", kind, tok.Kind)}
	}
	if depth >= jsontext.MaxNesting {
		return 0, &jsontext.SyntaxError{Offset: tok.Offset, Msg: fmt.Sprintf("nesting deeper than %d", jsontext.MaxNesting)}
	}
	return depth + 1, nil
}

// typ decodes the type whose object tok opens.
func (d *decoder) typ(tok jsontext.Token, depth int) (Type, error) {
	depth, err := d.open(tok, jsontext.TokBeginObject, depth)
	if err != nil {
		return nil, err
	}
	var (
		seen               uint64
		kind               = -1
		kindTok            jsontext.Token
		key                string
		fields             []Field
		elems, alts        []Type
		elem               Type
		wrapper, collapsed bool
		cases              []Variant
	)
	for {
		m, err := d.l.NextMember(typeMembers, &seen)
		if err != nil {
			return nil, err
		}
		if m < 0 {
			break
		}
		switch 1 << m {
		case mK:
			if kindTok, err = d.string(); err == nil {
				kind = jsontext.Lookup(kindTok, kindNames)
				if kind < 0 {
					return nil, fmt.Errorf("types: unknown wire kind %q", d.l.Text(kindTok))
				}
			}
		case mFields:
			fields, err = d.fieldArray(depth)
		case mElems:
			elems, err = d.typeArray(depth, "tuple element")
		case mElem:
			elem, err = d.next(depth)
		case mAlts:
			alts, err = d.typeArray(depth, "union alternative")
		case mKey:
			key, err = d.str()
		case mWrapper:
			wrapper, err = d.bool()
		case mCollapsed:
			collapsed, err = d.bool()
		case mCases:
			cases, err = d.caseArray(depth)
		}
		if err != nil {
			return nil, err
		}
	}
	if kind < 0 {
		return nil, fmt.Errorf("types: type without a kind at offset %d", tok.Offset)
	}
	if extra := seen &^ (mK | kindMembers[kind]); extra != 0 {
		return nil, fmt.Errorf("types: %s type with member %q", kindNames[kind], typeMembers[bits.TrailingZeros64(extra)])
	}
	switch kind {
	case kNull:
		return Null, nil
	case kBool:
		return Bool, nil
	case kNum:
		return Num, nil
	case kStr:
		return Str, nil
	case kEmpty:
		return Empty, nil
	case kRecord:
		if slices.IsSortedFunc(fields, compareFieldKeys) {
			return NewRecordSorted(fields)
		}
		return NewRecord(fields...)
	case kTuple:
		return NewTuple(elems...)
	case kRep, kMap:
		if elem == nil {
			return nil, fmt.Errorf("types: %s type without an element", kindNames[kind])
		}
		if kind == kRep {
			return NewRepeated(elem)
		}
		return NewMap(elem)
	case kUnion:
		if len(alts) < 2 {
			return nil, fmt.Errorf("types: union with %d alternatives", len(alts))
		}
		return NewUnion(alts...)
	default: // kVariants
		var other *Record
		if elem != nil {
			r, ok := elem.(*Record)
			if !ok {
				return nil, fmt.Errorf("types: variants other is %T, want record", elem)
			}
			other = r
		}
		if collapsed {
			if seen&(mKey|mWrapper|mCases) != 0 {
				return nil, fmt.Errorf("types: collapsed variants with a key, wrapper or cases")
			}
			return NewCollapsedVariants(other)
		}
		return NewVariants(key, wrapper, cases, other)
	}
}

// next decodes the type that begins at the next token.
func (d *decoder) next(depth int) (Type, error) {
	tok, err := d.l.Next()
	if err != nil {
		return nil, err
	}
	return d.typ(tok, depth)
}

// typeArray decodes an array of types; what names an element in errors.
func (d *decoder) typeArray(depth int, what string) ([]Type, error) {
	base := len(d.types)
	defer func() { d.types = d.types[:base] }()
	err := d.array(depth, func(i int, tok jsontext.Token, depth int) error {
		t, err := d.typ(tok, depth)
		if err != nil {
			return fmt.Errorf("%s %d: %w", what, i, err)
		}
		d.types = append(d.types, t)
		return nil
	})
	return slices.Clone(d.types[base:]), err
}

// fieldArray decodes a record's field array.
func (d *decoder) fieldArray(depth int) ([]Field, error) {
	base := len(d.fields)
	defer func() { d.fields = d.fields[:base] }()
	err := d.array(depth, func(i int, tok jsontext.Token, depth int) error {
		depth, err := d.open(tok, jsontext.TokBeginObject, depth)
		if err != nil {
			return err
		}
		var f Field
		var seen uint64
		for {
			m, err := d.l.NextMember(fieldMembers, &seen)
			if err != nil {
				return err
			}
			if m < 0 {
				break
			}
			switch m {
			case 0:
				f.Key, err = d.str()
			case 1:
				if f.Type, err = d.next(depth); err != nil {
					err = fmt.Errorf("field %d: %w", i, err)
				}
			case 2:
				f.Optional, err = d.bool()
			}
			if err != nil {
				return err
			}
		}
		if seen&0b11 != 0b11 {
			return fmt.Errorf("types: field %d without a key or type", i)
		}
		d.fields = append(d.fields, f)
		return nil
	})
	return slices.Clone(d.fields[base:]), err
}

// caseArray decodes a tagged union's case array.
func (d *decoder) caseArray(depth int) ([]Variant, error) {
	base := len(d.cases)
	defer func() { d.cases = d.cases[:base] }()
	err := d.array(depth, func(i int, tok jsontext.Token, depth int) error {
		depth, err := d.open(tok, jsontext.TokBeginObject, depth)
		if err != nil {
			return err
		}
		var c Variant
		var seen uint64
		for {
			m, err := d.l.NextMember(caseMembers, &seen)
			if err != nil {
				return err
			}
			if m < 0 {
				break
			}
			switch m {
			case 0:
				c.Tag, err = d.str()
			case 1:
				var t Type
				if t, err = d.next(depth); err != nil {
					err = fmt.Errorf("variant %d: %w", i, err)
				} else if c.Type, _ = t.(*Record); c.Type == nil {
					err = fmt.Errorf("types: variant %d is %T, want record", i, t)
				}
			}
			if err != nil {
				return err
			}
		}
		if seen != 0b11 {
			return fmt.Errorf("types: variant %d without a tag or type", i)
		}
		d.cases = append(d.cases, c)
		return nil
	})
	return slices.Clone(d.cases[base:]), err
}

// array reads an array member's value, calling elem with each element's
// index, first token and enclosing depth.
func (d *decoder) array(depth int, elem func(i int, tok jsontext.Token, depth int) error) error {
	tok, err := d.l.Next()
	if err != nil {
		return err
	}
	if depth, err = d.open(tok, jsontext.TokBeginArray, depth); err != nil {
		return err
	}
	for i := 0; ; i++ {
		if ok, err := d.l.NextElem(i); err != nil || !ok {
			return err
		}
		tok, err := d.l.Next()
		if err != nil {
			return err
		}
		if err := elem(i, tok, depth); err != nil {
			return err
		}
	}
}

// string reads a string member value's token.
func (d *decoder) string() (jsontext.Token, error) {
	tok, err := d.l.Next()
	if err == nil && tok.Kind != jsontext.TokStr {
		err = &jsontext.SyntaxError{Offset: tok.Offset, Msg: fmt.Sprintf("expected string, got %s", tok.Kind)}
	}
	return tok, err
}

// str reads a string member value.
func (d *decoder) str() (string, error) {
	tok, err := d.string()
	if err != nil {
		return "", err
	}
	return d.l.Text(tok), nil
}

// bool reads a boolean member value.
func (d *decoder) bool() (bool, error) {
	tok, err := d.l.Next()
	if err != nil {
		return false, err
	}
	switch tok.Kind {
	case jsontext.TokTrue:
		return true, nil
	case jsontext.TokFalse:
		return false, nil
	}
	return false, &jsontext.SyntaxError{Offset: tok.Offset, Msg: fmt.Sprintf("expected true or false, got %s", tok.Kind)}
}
