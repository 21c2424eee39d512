package jsontext

import (
	"io"
	"slices"
)

// Strict readers walk a document of a fixed grammar token by token —
// the types codec and Repository snapshots are read this way — with
// NextMember and NextElem consuming the separators and SkipValue the
// members whose bytes another decoder reads.

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
	key, err = l.scanString(off)
	return key, off, err == nil, err
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

// NextElem reads the first token of the next element of the array
// whose '[' was the last structural token read, consuming the ','
// before it; n is the number of elements read so far. At the closing
// ']' it returns ok false.
func (l *Lexer) NextElem(n int) (Token, bool, error) {
	b, err := l.peek()
	if err != nil {
		return Token{}, false, err
	}
	if b == ']' {
		l.pos++
		return Token{}, false, nil
	}
	if n > 0 {
		if err := l.punct(',', "or ']' in array"); err != nil {
			return Token{}, false, err
		}
	}
	tok, err := l.Next()
	return tok, err == nil, err
}

// SkipValue reads the next value, validating its syntax, and returns
// the offset of its first byte; the value ends at Offset. depth is the
// number of arrays and objects enclosing the value, counted toward
// MaxNesting. Duplicate keys are not checked: the decoder the skipped
// bytes are handed to decides about them.
func (l *Lexer) SkipValue(depth int) (int64, error) {
	tok, err := l.Next()
	if err != nil {
		return 0, err
	}
	return tok.Offset, l.skip(tok, depth)
}

func (l *Lexer) skip(tok Token, depth int) error {
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
		var err error
		if tok, ok, err = l.nextEntry(object, n); err != nil || !ok {
			return err
		}
		if err := l.skip(tok, depth); err != nil {
			return err
		}
	}
}

// nextEntry is NextElem for arrays; for objects it reads the next
// member's key and ':' and returns its value's first token.
func (l *Lexer) nextEntry(object bool, n int) (Token, bool, error) {
	if !object {
		return l.NextElem(n)
	}
	if _, _, ok, err := l.memberKey(n > 0); err != nil || !ok {
		return Token{}, false, err
	}
	if err := l.punct(':', "after key"); err != nil {
		return Token{}, false, err
	}
	tok, err := l.Next()
	return tok, err == nil, err
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
