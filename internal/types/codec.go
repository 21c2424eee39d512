package types

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

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
// a buffer allocated once to fit, and in both passes renders a subtree
// whose shape repeats (Shapes) once, copying those bytes from its own
// buffer on every later repeat. The reader decodes straight off the
// lexer's tokens through the constructors: it accepts the members in
// any order, with any whitespace, and rejects unknown, repeated and
// case-folded member names and members the kind does not take, so it
// accepts no document encoding/json would reject.
//
// A snapshot (snapshot.go) writes its types in the same format, except
// that a repeated shape sits once in a table and each use of it is
// {"ref": i}; outside a snapshot a ref is an error.

// MarshalJSON encodes the type as a JSON document that UnmarshalJSON
// round-trips.
func MarshalJSON(t Type) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("types: cannot marshal nil type")
	}
	shapes := NumberShapes(t)
	e := encoder{sizing: true, shapes: shapes, renders: make([]rendering, shapes.Len())}
	e.typ(t, 0, 0)
	e.buf, e.sizing = make([]byte, 0, e.n), false
	e.typ(t, 0, 0)
	return e.buf, nil
}

// encoder writes a codec document, or with sizing set counts its bytes
// in n. Outside a snapshot, a subtree whose shape repeats is rendered
// once and copied after that: the sizing pass records the rendering's
// length, the writing pass its offset, and both make the same copy
// decisions. In a snapshot every repeat is a ref into the table.
type encoder struct {
	buf     []byte
	n       int
	sizing  bool
	shapes  *Shapes
	renders []rendering // by shape id, outside a snapshot
	// refs holds, in a snapshot, 1 + the table index of each tabled
	// shape by shape id, and costs the cost of each entry by index.
	refs  []int32
	costs []cost
	// size and top measure, in a snapshot, what has been written since
	// they were last reset, refs expanded: its size as Size counts it,
	// and the deepest nesting level its codec document reaches.
	size int64
	top  int
}

// A rendering is where the bytes of one repeated shape sit in the
// document: 1 + their offset, 0 until the writing pass has written
// them, and their length, 0 until the sizing pass has counted them.
type rendering struct{ at, n int }

// A cost is what a table entry costs where it is used: its expanded
// size as Size counts it, and the number of nesting levels its expanded
// codec document spans.
type cost struct {
	size   int64
	height int
}

// typ writes t's object, whose opening brace sits at nesting depth;
// pos is t's position in the shape numbering.
func (e *encoder) typ(t Type, pos, depth int) {
	id, shared := e.shapes.Shared(t, pos)
	if !shared {
		e.render(t, pos, depth)
		return
	}
	if e.refs != nil {
		e.ref(int(e.refs[id])-1, depth)
		return
	}
	r := &e.renders[id]
	switch {
	case e.sizing && r.n > 0:
		e.n += r.n
	case e.sizing:
		start := e.n
		e.render(t, pos, depth)
		r.n = e.n - start
	case r.at > 0:
		e.buf = append(e.buf, e.buf[r.at-1:r.at-1+r.n]...)
	default:
		r.at = 1 + len(e.buf)
		e.render(t, pos, depth)
	}
}

// ref writes a ref to table entry i, used at nesting depth.
func (e *encoder) ref(i, depth int) {
	c := e.costs[i]
	e.size += c.size
	e.top = max(e.top, depth+c.height)
	e.buf = append(e.buf, `{"ref":`...)
	e.buf = strconv.AppendInt(e.buf, int64(i), 10)
	e.buf = append(e.buf, '}')
}

// render writes t's object as typ does, without looking for an earlier
// rendering of t itself.
func (e *encoder) render(t Type, pos, depth int) {
	e.size += ownSize(t)
	e.top = max(e.top, depth+1)
	e.raw(`{"k":`)
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
			e.raw(`,"fields":[`)
			at := pos + 1
			for i, f := range tt.fields {
				if i > 0 {
					e.byte(',')
				}
				e.raw(`{"key":`)
				e.quote(f.Key)
				e.raw(`,"type":`)
				e.typ(f.Type, at, depth+3)
				at = e.shapes.Skip(f.Type, at)
				if f.Optional {
					e.raw(`,"opt":true`)
				}
				e.byte('}')
			}
			e.byte(']')
		}
	case *Tuple:
		e.raw(`"tuple"`)
		e.types(pos, depth, `,"elems":[`, tt.elems)
	case *Repeated:
		e.raw(`"rep","elem":`)
		e.typ(tt.elem, pos+1, depth+1)
	case *Map:
		e.raw(`"map","elem":`)
		e.typ(tt.elem, pos+1, depth+1)
	case *Union:
		e.raw(`"union"`)
		e.types(pos, depth, `,"alts":[`, tt.alts)
	case *Variants:
		e.raw(`"variants"`)
		if tt.other != nil {
			// Other is numbered after the cases.
			at := pos + 1
			for range tt.cases {
				at = e.shapes.End(at)
			}
			e.raw(`,"elem":`)
			e.typ(tt.other, at, depth+1)
		}
		if tt.key != "" {
			e.raw(`,"key":`)
			e.quote(tt.key)
		}
		if tt.wrapper {
			e.raw(`,"wrapper":true`)
		}
		if tt.collapsed {
			e.raw(`,"collapsed":true`)
		}
		if len(tt.cases) > 0 {
			e.raw(`,"cases":[`)
			at := pos + 1
			for i, c := range tt.cases {
				if i > 0 {
					e.byte(',')
				}
				e.raw(`{"tag":`)
				e.quote(c.Tag)
				e.raw(`,"type":`)
				e.typ(c.Type, at, depth+3)
				at = e.shapes.End(at)
				e.byte('}')
			}
			e.byte(']')
		}
	default:
		panic(fmt.Sprintf("types: unknown type %T", t))
	}
	e.byte('}')
}

// types writes the array member that open begins with the children ts
// of the node at position pos, omitted when ts is empty.
func (e *encoder) types(pos, depth int, open string, ts []Type) {
	if len(ts) == 0 {
		return
	}
	e.raw(open)
	at := pos + 1
	for i, t := range ts {
		if i > 0 {
			e.byte(',')
		}
		e.typ(t, at, depth+2)
		at = e.shapes.Skip(t, at)
	}
	e.byte(']')
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
	return d.read(depth, math.MaxInt64)
}

// read decodes the type that begins at the next token of d.l, which
// may expand to at most limit nodes, and leaves d.size and d.top
// measuring it.
func (d *decoder) read(depth int, limit int64) (Type, error) {
	d.size, d.top = 0, depth
	tok, err := d.l.Next()
	var t Type
	if err == nil {
		t, err = d.typ(tok, depth)
	}
	if err == nil && d.size > limit {
		err = errSnapshotSize
	}
	if err == nil {
		return t, nil
	}
	if syn := (*jsontext.SyntaxError)(nil); errors.As(err, &syn) {
		err = fmt.Errorf("types: decoding type: %w", err)
	}
	return nil, err
}

// The member names of a type object; bit i of a member set is
// typeMembers[i].
var typeMembers = []string{"k", "fields", "elems", "elem", "alts", "key", "wrapper", "collapsed", "cases", "ref"}

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
	mRef
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
	// snap is the snapshot whose table refs name, nil outside one.
	snap *SnapshotReader
	// size and top measure the type being read, refs expanded: its size
	// as Size counts it and the deepest nesting level its codec
	// document reaches.
	size int64
	top  int
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
	d.top = max(d.top, depth+1)
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
		ref                int
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
		case mRef:
			ref, err = d.ref()
		}
		if err != nil {
			return nil, err
		}
	}
	if seen&mRef != 0 {
		if extra := seen &^ mRef; extra != 0 {
			return nil, fmt.Errorf("types: ref with member %q", typeMembers[bits.TrailingZeros64(extra)])
		}
		return d.resolve(ref, depth-1)
	}
	if kind < 0 {
		return nil, fmt.Errorf("types: type without a kind at offset %d", tok.Offset)
	}
	if extra := seen &^ (mK | kindMembers[kind]); extra != 0 {
		return nil, fmt.Errorf("types: %s type with member %q", kindNames[kind], typeMembers[bits.TrailingZeros64(extra)])
	}
	// The node's own term of Size, as ownSize counts the node built.
	switch kind {
	case kRecord:
		d.size += 1 + int64(len(fields))
	case kMap:
		d.size += 2
	case kUnion:
		d.size += int64(len(alts)) - 1
	case kVariants:
		d.size += 1 + int64(len(cases))
		if elem != nil {
			d.size++
		}
	default:
		d.size++
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

// ref reads a ref's value, the index of an entry of the table read so
// far: so a ref can name only an earlier entry, and no document
// describes a cycle.
func (d *decoder) ref() (int, error) {
	tok, err := d.l.Next()
	if err != nil {
		return 0, err
	}
	if d.snap == nil {
		return 0, fmt.Errorf("types: ref outside a snapshot at offset %d", tok.Offset)
	}
	if tok.Kind != jsontext.TokNum {
		return 0, &jsontext.SyntaxError{Offset: tok.Offset, Msg: fmt.Sprintf("expected ref index, got %s", tok.Kind)}
	}
	lit, n := d.l.Literal(), 0
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("types: ref %s is not an index", lit)
		}
		if n = 10*n + int(c-'0'); n >= len(d.snap.entries) {
			return 0, fmt.Errorf("types: ref %s past the %d shapes before it", lit, len(d.snap.entries))
		}
	}
	return n, nil
}

// resolve returns the node of table entry i, used at nesting depth,
// once its expansion is known to nest no deeper than a document may.
// Its size counts toward the limit read checks: each ref adds at most
// MaxSnapshotSize, so no document can make the sum overflow.
func (d *decoder) resolve(i, depth int) (Type, error) {
	e := d.snap.entries[i]
	if depth+e.height > jsontext.MaxNesting {
		return nil, fmt.Errorf("types: ref %d nests deeper than %d", i, jsontext.MaxNesting)
	}
	d.top = max(d.top, depth+e.height)
	d.size += e.size
	return e.t, nil
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
