package jsontext

import (
	"io"
	"slices"
)

// The walk API reads a document structure by structure: NextMember and
// NextKey consume an object member's separators and name, NextElem an
// array element's separator, and SkipValue a whole value whose bytes
// another decoder reads. It has three clients. The strict readers of a
// fixed grammar, the types codec and Repository snapshots, match member
// names with NextMember and read values with Next. The membership
// matcher (types.Matcher) compares keys from NextKey with a type's
// fields and reads scalars with NextKind, which checks a value without
// delivering its content; SkipValue reads the same way.

// MaxNesting is encoding/json's bound on the nesting depth of a
// document. Strict readers reject anything deeper, so a document they
// accept is one encoding/json accepts too.
const MaxNesting = 10000

// NextMember reads the next member name of the object whose '{' was
// the last structural token read, together with the ',' before it and
// the ':' after it, and returns the name's index in names; the member's
// value is the next token. At the closing '}' it returns -1. *seen is
// the caller's per-object set of names read so far, zero before the
// first member, as a bitmask over names (at most 64 of them). A name
// outside names, or one already in *seen, is an error: the member names
// of a strict grammar are matched exactly, never case-folded, ignored
// or overwritten as encoding/json would.
func (l *Lexer) NextMember(names []string, seen *uint64) (int, error) {
	key, off, ok, err := l.memberKey(*seen != 0)
	if err != nil || !ok {
		return -1, err
	}
	i := lookup(key, names)
	if i < 0 {
		return 0, l.errorf(off, "unknown member %q", key)
	}
	if *seen&(1<<i) != 0 {
		return 0, l.errorf(off, "duplicate member %q", names[i])
	}
	*seen |= 1 << i
	return i, l.punct(':', "after key")
}

// memberKey reads the key of an object's next member, and the ','
// before it unless it is the first, and returns the key with its
// offset; ok is false at the closing '}'. The key is a transient view,
// as a raw-mode token's Bytes is.
func (l *Lexer) memberKey(later bool) (key []byte, off int64, ok bool, err error) {
	b, err := l.peek()
	if err != nil {
		return nil, 0, false, err
	}
	if b == '}' {
		l.pos++
		return nil, 0, false, nil
	}
	if later {
		if b != ',' {
			return nil, 0, false, l.errorf(l.Offset(), "expected ',' or '}' in object, got %q", b)
		}
		l.pos++
		if b, err = l.peek(); err != nil {
			return nil, 0, false, err
		}
	}
	off = l.Offset()
	if b != '"' {
		return nil, 0, false, l.errorf(off, "expected object key string, got %q", b)
	}
	l.pos++
	key, err = l.scanString(off, true)
	return key, off, err == nil, err
}

// NextKey reads the next member name of the object whose '{' was the
// last structural token read, with the ',' before it unless it is the
// first (later false) and the ':' after it; the member's value is the
// next token. The name is decoded as Next decodes a string, into a
// transient view as a raw-mode token's Bytes is. At the closing '}' it
// returns ok false.
func (l *Lexer) NextKey(later bool) (key []byte, ok bool, err error) {
	if key, _, ok, err = l.memberKey(later); !ok {
		return nil, false, err
	}
	if l.pos < len(l.data) && l.data[l.pos] == ':' {
		l.pos++
		return key, true, nil
	}
	// A refill to reach the ':' would move the window under a key that
	// is a view into it, so the key moves to the scratch first.
	key = append(l.strBuf[:0], key...)
	l.strBuf = key
	if err := l.punct(':', "after key"); err != nil {
		return nil, false, err
	}
	return key, true, nil
}

// peek skips whitespace and returns the next byte, unread; the end of
// the input is a syntax error, since strict readers call it only inside
// an object or array.
func (l *Lexer) peek() (byte, error) {
	if err := l.skipSpace(); err != nil {
		if err == io.EOF {
			err = l.errorf(l.Offset(), "unexpected end of input")
		}
		return 0, err
	}
	return l.data[l.pos], nil
}

// punct reads the structural byte c; where names its place in errors.
func (l *Lexer) punct(c byte, where string) error {
	b, err := l.peek()
	if err == nil && b != c {
		err = l.errorf(l.Offset(), "expected %q %s, got %q", c, where, b)
	}
	if err == nil {
		l.pos++
	}
	return err
}

// NextElem reads up to the next element of the array whose '[' was
// the last structural token read: the ',' before it unless n, the
// number of elements read so far, is 0. The element is the next token.
// At the closing ']' it returns false.
func (l *Lexer) NextElem(n int) (bool, error) {
	b, err := l.peek()
	if err != nil {
		return false, err
	}
	if b == ']' {
		l.pos++
		return false, nil
	}
	if n > 0 {
		if err := l.punct(',', "or ']' in array"); err != nil {
			return false, err
		}
	}
	return true, nil
}

// SkipValue reads the next value, validating its syntax, and returns
// the offset of its first byte; the value ends at Offset. depth is the
// number of arrays and objects enclosing the value, counted toward
// MaxNesting. Duplicate keys are not checked: the decoder the skipped
// bytes are handed to decides about them.
func (l *Lexer) SkipValue(depth int) (int64, error) {
	if _, err := l.peek(); err != nil {
		return 0, err
	}
	start := l.Offset()
	return start, l.skip(depth)
}

func (l *Lexer) skip(depth int) error {
	tok, err := l.next(false)
	if err != nil {
		return err
	}
	switch tok.Kind {
	case TokNull, TokTrue, TokFalse, TokNum, TokStr:
		return nil
	case TokBeginObject, TokBeginArray:
	default:
		return l.errorf(tok.Offset, "unexpected %s", tok.Kind)
	}
	if depth++; depth > MaxNesting {
		return l.errorf(tok.Offset, "nesting deeper than %d", MaxNesting)
	}
	object := tok.Kind == TokBeginObject
	for n := 0; ; n++ {
		var ok bool
		if object {
			_, ok, err = l.NextKey(n > 0)
		} else {
			ok, err = l.NextElem(n)
		}
		if err != nil || !ok {
			return err
		}
		if err := l.skip(depth); err != nil {
			return err
		}
	}
}

// Lookup returns the index of string token tok's text in names, or -1,
// without materializing the text.
func Lookup(tok Token, names []string) int {
	if tok.Bytes == nil {
		return slices.Index(names, tok.Str)
	}
	return lookup(tok.Bytes, names)
}

func lookup(b []byte, names []string) int {
	for i, n := range names {
		if string(b) == n {
			return i
		}
	}
	return -1
}

// Text returns a string token's text in either string mode, serving a
// raw-mode token's bytes through the string cache (see InternBytes).
func (l *Lexer) Text(tok Token) string {
	if tok.Bytes != nil {
		return l.internString(tok.Bytes)
	}
	return tok.Str
}
