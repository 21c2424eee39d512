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
// (strings through jsontext.AppendQuote). The reader decodes straight
// off the lexer's tokens through the constructors: it accepts the
// members in any order, with any whitespace, and rejects unknown,
// repeated and case-folded member names and members the kind does not
// take, so it accepts no document encoding/json would reject.

// MarshalJSON encodes the type as a JSON document that UnmarshalJSON
// round-trips.
func MarshalJSON(t Type) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("types: cannot marshal nil type")
	}
	e := encoder{}
	e.typ(t, 0)
	return e.buf, nil
}

// AppendIndentJSON appends t's codec document to dst laid out as
// json.Encoder with SetIndent("", "  ") lays it out, the type's opening
// brace on a line indented to depth. t must not be nil.
func AppendIndentJSON(dst []byte, t Type, depth int) []byte {
	e := encoder{buf: dst, indent: true}
	e.typ(t, depth)
	return e.buf
}

// encoder appends a codec document to buf, compact or indented.
type encoder struct {
	buf    []byte
	indent bool
}

// typ writes t's object, whose opening brace sits at indentation depth.
func (e *encoder) typ(t Type, depth int) {
	e.buf = append(e.buf, '{')
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
			e.buf = append(e.buf, '[')
			for i, f := range tt.fields {
				e.elem(depth+1, i)
				e.buf = append(e.buf, '{')
				e.member(depth+2, false, "key")
				e.buf = jsontext.AppendQuote(e.buf, f.Key)
				e.member(depth+2, true, "type")
				e.typ(f.Type, depth+3)
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
		e.types(depth, "elems", tt.elems)
	case *Repeated:
		e.raw(`"rep"`)
		e.member(depth, true, "elem")
		e.typ(tt.elem, depth+1)
	case *Map:
		e.raw(`"map"`)
		e.member(depth, true, "elem")
		e.typ(tt.elem, depth+1)
	case *Union:
		e.raw(`"union"`)
		e.types(depth, "alts", tt.alts)
	case *Variants:
		e.raw(`"variants"`)
		if tt.other != nil {
			e.member(depth, true, "elem")
			e.typ(tt.other, depth+1)
		}
		if tt.key != "" {
			e.member(depth, true, "key")
			e.buf = jsontext.AppendQuote(e.buf, tt.key)
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
			e.buf = append(e.buf, '[')
			for i, c := range tt.cases {
				e.elem(depth+1, i)
				e.buf = append(e.buf, '{')
				e.member(depth+2, false, "tag")
				e.buf = jsontext.AppendQuote(e.buf, c.Tag)
				e.member(depth+2, true, "type")
				e.typ(c.Type, depth+3)
				e.end(depth+2, '}')
			}
			e.end(depth+1, ']')
		}
	default:
		panic(fmt.Sprintf("types: unknown type %T", t))
	}
	e.end(depth, '}')
}

// types writes the array member name of ts, omitted when ts is empty.
func (e *encoder) types(depth int, name string, ts []Type) {
	if len(ts) == 0 {
		return
	}
	e.member(depth, true, name)
	e.buf = append(e.buf, '[')
	for i, t := range ts {
		e.elem(depth+1, i)
		e.typ(t, depth+2)
	}
	e.end(depth+1, ']')
}

// member starts the member name of an object whose opening brace sits
// at depth; later is false for the first member.
func (e *encoder) member(depth int, later bool, name string) {
	if later {
		e.buf = append(e.buf, ',')
	}
	e.newline(depth + 1)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, '"', ':')
	if e.indent {
		e.buf = append(e.buf, ' ')
	}
}

// elem starts element i of an array whose opening bracket sits at depth.
func (e *encoder) elem(depth, i int) {
	if i > 0 {
		e.buf = append(e.buf, ',')
	}
	e.newline(depth + 1)
}

// end closes an object or array whose opening bracket sits at depth.
func (e *encoder) end(depth int, c byte) {
	e.newline(depth)
	e.buf = append(e.buf, c)
}

func (e *encoder) newline(depth int) {
	if e.indent {
		e.buf = append(e.buf, '\n')
		for i := 0; i < depth; i++ {
			e.buf = append(e.buf, ' ', ' ')
		}
	}
}

func (e *encoder) raw(s string) { e.buf = append(e.buf, s...) }

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
