package jsontext

import (
	"fmt"
	"io"
	"slices"
	"unicode/utf8"
)

// The walk API reads a document structure by structure: NextMember and
// NextKey consume an object member's separators and name, NextKeyIs
// consumes them when the name is one the caller predicts, NextElem an
// array element's separator, and SkipValue a whole value whose bytes
// another decoder reads. It holds the one copy of the object and array
// grammar, and of its syntax errors; a reader that walks a document
// gets values from Next and structure from here. Its clients:
//   - the typing decoder (infer.Decoder) and the value parser (Parser)
//     read keys with NextKey and elements with NextElem, and reject a
//     repeated key with a KeySet; the decoder, walking against a
//     reference record, first tries NextKeyIs with the record's next
//     field. The parser reads values with Next, the decoder with
//     NextKind, which checks a value without delivering its content,
//     unless a hook wants the content;
//   - the strict readers of a fixed grammar, the types codec and
//     Repository snapshots, match member names with NextMember;
//   - SkipValue reads a value as the decoder does, with NextKind.
//
// A separator or key that is not where the grammar needs it is reported
// as the token-at-a-time reader would: the token there is lexed, so a
// malformed one reports its own error, and a well-formed one is named,
// "expected ',' or '}' in object, got number", at its offset.

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
			return nil, 0, false, l.unexpected("',' or '}' in object")
		}
		l.pos++
		if b, err = l.peek(); err != nil {
			return nil, 0, false, err
		}
	}
	if b != '"' {
		return nil, 0, false, l.unexpected("object key string")
	}
	off = l.Offset()
	l.pos++
	key, err = l.scanString(off, true)
	return key, off, err == nil, err
}

// NextKey reads the next member name of the object whose '{' was the
// last structural token read, with the ',' before it unless it is the
// first (later false) and the ':' after it; the member's value is the
// next token. The name is decoded as Next decodes a string, into a
// transient view as a raw-mode token's Bytes is, and off is the offset
// of its opening quote. At the closing '}' it returns ok false. ok is
// true whenever a name was read, even if reading the ':' after it
// failed: err is then that failure, and a caller that checks names, for
// a duplicate say, reports its own error first, as it would reading the
// name and the ':' as two tokens.
func (l *Lexer) NextKey(later bool) (key []byte, off int64, ok bool, err error) {
	if key, off, ok, err = l.memberKey(later); !ok {
		return nil, 0, false, err
	}
	if l.pos < len(l.data) && l.data[l.pos] == ':' {
		l.pos++
		return key, off, true, nil
	}
	// A refill to reach the ':' would move the window under a key that
	// is a view into it, so the key moves to the scratch first.
	key = append(l.strBuf[:0], key...)
	l.strBuf = key
	b, err := l.peek()
	switch {
	case err != nil:
	case b == ':':
		l.pos++
	default:
		// A string in place of the ':' is lexed into the scratch too.
		key, err = slices.Clone(key), l.unexpected("':' after key")
	}
	return key, off, true, err
}

// NextKeyIs reads the next member name of an object as NextKey does,
// when that name is key: it consumes the ',' before the name unless
// later is false, the name and the ':' after it, whitespace allowed
// around the ',' and the ':', and returns the offset of the name's
// opening quote, the offset NextKey returns. It does so only when the
// window holds exactly those bytes; otherwise it consumes nothing and
// returns false, and the caller reads the member with NextKey. It is
// the read for callers that expect a member, a reader walking an object
// against a known record, say: a prediction costs one byte compare per
// byte of the name, and a miss costs nothing but the compare.
//
// key must be Predictable, so that its bytes between quotes are a
// string that decodes to key.
func (l *Lexer) NextKeyIs(later bool, key string) (int64, bool) {
	data := l.data
	i := nextByte(data, l.pos)
	if later {
		if i == len(data) || data[i] != ',' {
			return 0, false
		}
		i = nextByte(data, i+1)
	}
	q, e := i, i+1+len(key)
	if e >= len(data) || data[q] != '"' || data[e] != '"' || string(data[q+1:e]) != key {
		return 0, false
	}
	if i = nextByte(data, e+1); i == len(data) || data[i] != ':' {
		return 0, false
	}
	l.pos = i + 1
	return l.base + int64(q), true
}

// Predictable reports whether NextKeyIs may be asked for key: whether
// key, quoted as it is, is a JSON string that decodes to key. That
// holds for valid UTF-8 with no '"', '\' or byte below 0x20.
func Predictable(key string) bool {
	for i := 0; i < len(key); i++ {
		if c := key[i]; c == '"' || c == '\\' || c < 0x20 {
			return false
		}
	}
	return utf8.ValidString(key)
}

// peek skips whitespace and returns the next byte, unread, or 0 at the
// end of the input: no structural byte, so the end reaches unexpected
// as any other wrong byte does.
func (l *Lexer) peek() (byte, error) {
	if err := l.skipSpace(); err != nil {
		if err == io.EOF {
			err = nil
		}
		return 0, err
	}
	return l.data[l.pos], nil
}

// punct reads the structural byte c; where names its place in errors.
func (l *Lexer) punct(c byte, where string) error {
	b, err := l.peek()
	if err != nil {
		return err
	}
	if b != c {
		return l.unexpected(fmt.Sprintf("%q %s", c, where))
	}
	l.pos++
	return nil
}

// unexpected reports the token at the next byte, where the grammar
// needs what instead: the token's own error if it does not lex, else an
// error naming its kind, at its offset.
func (l *Lexer) unexpected(what string) error {
	tok, err := l.next(false)
	if err == nil {
		err = l.errorf(tok.Offset, "expected %s, got %s", what, tok.Kind)
	}
	return err
}

// NextElem reads up to the next element of the array whose '[' was
// the last structural token read: the ',' before it unless n, the
// number of elements read so far, is 0. The element is the next token;
// the end of the input there is left for its reader to report. At the
// closing ']' it returns false.
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
			_, _, ok, err = l.NextKey(n > 0)
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

// A KeySet holds the keys of one object read so far, so that its
// reader rejects a repeated key (well-formedness per Section 4 of the
// paper) in time linear in the object's width: the first 16 keys are
// scanned, the rest indexed. The zero value is empty; Reset empties it
// for the next object and keeps its storage.
type KeySet struct {
	few  []string
	many map[string]struct{}
}

// Reset empties the set, dropping an index too large to keep.
func (s *KeySet) Reset() {
	s.few = s.few[:0]
	switch {
	case len(s.many) > 4096:
		s.many = nil
	case len(s.many) > 0:
		clear(s.many)
	}
}

// Add adds key to the set and reports whether it was there already.
func (s *KeySet) Add(key string) bool {
	if len(s.few) < 16 {
		if slices.Contains(s.few, key) {
			return true
		}
		s.few = append(s.few, key)
		return false
	}
	if len(s.many) == 0 {
		if s.many == nil {
			s.many = make(map[string]struct{})
		}
		for _, k := range s.few {
			s.many[k] = struct{}{}
		}
	}
	_, ok := s.many[key]
	s.many[key] = struct{}{}
	return ok
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
