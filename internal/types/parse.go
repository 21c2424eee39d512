package types

import (
	"fmt"
	"unicode/utf8"

	"repro/internal/jsontext"
)

// Parse parses a type expression in the concrete syntax produced by
// String (and Indent): basic type names, ε (also accepted as "Empty"),
// record types {k: T, k2: T2?}, tuple array types [T1, T2], simplified
// array types [T*], unions T + U, and parenthesized types. Keys may be
// bare identifiers or double-quoted JSON strings.
//
// Parse(t.String()) is the identity on canonical types, which the tests
// verify by round-tripping randomly generated types.
func Parse(src string) (Type, error) {
	p := &typeParser{src: src}
	p.skipSpace()
	t, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return nil, p.errorf("unexpected trailing input")
	}
	return t, nil
}

// MustParse is Parse that panics on error; for tests and literals.
func MustParse(src string) Type {
	t, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return t
}

type typeParser struct {
	src string
	pos int
	// buf is src as bytes for the lexer, copied at the first quoted key.
	buf []byte
}

func (p *typeParser) errorf(format string, args ...any) error {
	return fmt.Errorf("types: parse error at offset %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *typeParser) skipSpace() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *typeParser) peek() byte {
	if p.pos < len(p.src) {
		return p.src[p.pos]
	}
	return 0
}

func (p *typeParser) expect(c byte) error {
	if p.peek() != c {
		return p.errorf("expected %q", string(c))
	}
	p.pos++
	return nil
}

// parseUnion parses term ('+' term)*.
func (p *typeParser) parseUnion() (Type, error) {
	first, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	alts := []Type{first}
	for {
		p.skipSpace()
		if p.peek() != '+' {
			break
		}
		p.pos++
		p.skipSpace()
		next, err := p.parseTerm()
		if err != nil {
			return nil, err
		}
		alts = append(alts, next)
	}
	if len(alts) == 1 {
		return first, nil
	}
	return NewUnion(alts...)
}

// parseTerm parses a non-union type or a parenthesized type.
func (p *typeParser) parseTerm() (Type, error) {
	p.skipSpace()
	switch c := p.peek(); {
	case c == '(':
		p.pos++
		t, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return t, nil
	case c == '{':
		return p.parseRecord()
	case c == '[':
		return p.parseArray()
	case c == 0:
		return nil, p.errorf("unexpected end of input")
	default:
		return p.parseName()
	}
}

func (p *typeParser) parseName() (Type, error) {
	start := p.pos
	for p.pos < len(p.src) {
		r, size := utf8.DecodeRuneInString(p.src[p.pos:])
		if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == 'ε' {
			p.pos += size
			continue
		}
		break
	}
	name := p.src[start:p.pos]
	switch name {
	case "Null":
		return Null, nil
	case "Bool":
		return Bool, nil
	case "Num":
		return Num, nil
	case "Str":
		return Str, nil
	case "ε", "Empty":
		return Empty, nil
	case "variants":
		if err := p.expect('('); err != nil {
			return nil, err
		}
		p.skipSpace()
		key, err := p.parseKey()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect(')'); err != nil {
			return nil, err
		}
		return p.parseVariantsBody(key, false)
	case "wrapper":
		return p.parseVariantsBody("", true)
	case "collapsed":
		if err := p.expect('{'); err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect('*'); err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect(':'); err != nil {
			return nil, err
		}
		other, err := p.parseCaseRecord()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect('}'); err != nil {
			return nil, err
		}
		return NewCollapsedVariants(other)
	case "":
		return nil, p.errorf("expected a type")
	default:
		return nil, p.errorf("unknown type name %q", name)
	}
}

// parseVariantsBody parses the `{tag: {...}, ..., *: {...}}` body shared
// by the keyed and wrapper forms; the `*: R` entry, when present, must
// be last.
func (p *typeParser) parseVariantsBody(key string, wrapper bool) (Type, error) {
	p.skipSpace()
	if err := p.expect('{'); err != nil {
		return nil, err
	}
	var cases []Variant
	var other *Record
	for {
		p.skipSpace()
		if p.peek() == '*' {
			p.pos++
			p.skipSpace()
			if err := p.expect(':'); err != nil {
				return nil, err
			}
			o, err := p.parseCaseRecord()
			if err != nil {
				return nil, err
			}
			other = o
			p.skipSpace()
			if err := p.expect('}'); err != nil {
				return nil, err
			}
			break
		}
		tag, err := p.parseKey()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect(':'); err != nil {
			return nil, err
		}
		ct, err := p.parseCaseRecord()
		if err != nil {
			return nil, err
		}
		cases = append(cases, Variant{Tag: tag, Type: ct})
		p.skipSpace()
		switch p.peek() {
		case ',':
			p.pos++
			continue
		case '}':
			p.pos++
		default:
			return nil, p.errorf("expected ',' or '}' in variants")
		}
		break
	}
	return NewVariants(key, wrapper, cases, other)
}

// parseCaseRecord parses a record type in a position where the variants
// syntax requires one (case bodies and the Other entry).
func (p *typeParser) parseCaseRecord() (*Record, error) {
	p.skipSpace()
	t, err := p.parseTerm()
	if err != nil {
		return nil, err
	}
	r, ok := t.(*Record)
	if !ok {
		return nil, p.errorf("variant case must be a record type, got %s", t)
	}
	return r, nil
}

func (p *typeParser) parseRecord() (Type, error) {
	if err := p.expect('{'); err != nil {
		return nil, err
	}
	var fields []Field
	p.skipSpace()
	if p.peek() == '}' {
		p.pos++
		return NewRecord()
	}
	if p.peek() == '*' {
		// Abstracted record type {*: T}.
		p.pos++
		p.skipSpace()
		if err := p.expect(':'); err != nil {
			return nil, err
		}
		elem, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect('}'); err != nil {
			return nil, err
		}
		return NewMap(elem)
	}
	for {
		p.skipSpace()
		key, err := p.parseKey()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if err := p.expect(':'); err != nil {
			return nil, err
		}
		t, err := p.parseUnion()
		if err != nil {
			return nil, err
		}
		opt := false
		p.skipSpace()
		if p.peek() == '?' {
			p.pos++
			opt = true
			p.skipSpace()
		}
		fields = append(fields, Field{Key: key, Type: t, Optional: opt})
		switch p.peek() {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return NewRecord(fields...)
		default:
			return nil, p.errorf("expected ',' or '}' in record type")
		}
	}
}

func (p *typeParser) parseArray() (Type, error) {
	if err := p.expect('['); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.peek() == ']' {
		p.pos++
		return EmptyTuple, nil
	}
	first, err := p.parseUnion()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.peek() == '*' {
		p.pos++
		p.skipSpace()
		if err := p.expect(']'); err != nil {
			return nil, err
		}
		return NewRepeated(first)
	}
	elems := []Type{first}
	for {
		switch p.peek() {
		case ',':
			p.pos++
			e, err := p.parseUnion()
			if err != nil {
				return nil, err
			}
			elems = append(elems, e)
			p.skipSpace()
		case ']':
			p.pos++
			return NewTuple(elems...)
		default:
			return nil, p.errorf("expected ',', '*' or ']' in array type")
		}
	}
}

// parseKey parses a bare identifier or a double-quoted JSON string key.
func (p *typeParser) parseKey() (string, error) {
	if p.peek() == '"' {
		return p.parseQuotedKey()
	}
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9', c == '-':
			if p.pos == start {
				return "", p.errorf("record key cannot start with %q", string(c))
			}
		default:
			if p.pos == start {
				return "", p.errorf("expected a record key")
			}
			return p.src[start:p.pos], nil
		}
		p.pos++
	}
	if p.pos == start {
		return "", p.errorf("expected a record key")
	}
	return p.src[start:p.pos], nil
}

// parseQuotedKey parses a double-quoted JSON string key, decoded as the
// JSON lexer decodes one in data, so keys render back to what was parsed.
func (p *typeParser) parseQuotedKey() (string, error) {
	if p.buf == nil {
		p.buf = []byte(p.src)
	}
	key, n, err := jsontext.UnquotePrefix(p.buf[p.pos:])
	if err != nil {
		return "", p.errorf("bad quoted key: %v", err)
	}
	p.pos += n
	return key, nil
}
