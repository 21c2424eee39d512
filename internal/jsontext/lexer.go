// Package jsontext implements a streaming JSON lexer and parser for the
// inference pipeline (the role Json4s plays in the paper's Scala
// implementation). The lexer delivers values as tokens (Next) and
// objects and arrays through its walk API (walk.go), which holds the
// one copy of the object and array grammar. Both readers of whole
// documents are its clients: the value parser (Parser), which builds
// the value model of internal/value, and the typing decoder of
// internal/infer, which infers types without materializing values.
//
// The grammar implemented is RFC 8259 JSON. Duplicate object keys are
// rejected by the parser and the decoder (well-formedness per Section 4
// of the paper); the lexer itself is key-agnostic.
//
// The lexer has one scanning path: it always scans a window of bytes.
// A byte slice is a window holding the whole input; a reader refills
// the window in place. Both inputs run the same loops and produce the
// same tokens, errors and offsets.
package jsontext

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// TokenKind identifies a lexical token.
type TokenKind int

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokNull
	TokTrue
	TokFalse
	TokNum
	TokStr
	TokBeginObject // {
	TokEndObject   // }
	TokBeginArray  // [
	TokEndArray    // ]
	TokComma       // ,
	TokColon       // :
)

// String names the token kind for error messages.
func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokNull:
		return "null"
	case TokTrue:
		return "true"
	case TokFalse:
		return "false"
	case TokNum:
		return "number"
	case TokStr:
		return "string"
	case TokBeginObject:
		return "'{'"
	case TokEndObject:
		return "'}'"
	case TokBeginArray:
		return "'['"
	case TokEndArray:
		return "']'"
	case TokComma:
		return "','"
	case TokColon:
		return "':'"
	default:
		return fmt.Sprintf("TokenKind(%d)", int(k))
	}
}

// Token is a lexical token. Str carries the decoded string for TokStr and
// Num the parsed value for TokNum. Offset is the byte offset of the
// token's first byte in the input.
//
// In raw-string mode (see RawStrings) TokStr tokens carry the decoded
// bytes in Bytes and leave Str empty. Bytes is a view into the lexer's
// window or string scratch, valid only until the next call to Next: a
// reader refill may move the window. Callers that need the string to
// outlive the token materialize it with InternBytes; callers that only
// classify the token (type inference over values) never pay for a
// string at all.
type Token struct {
	Kind   TokenKind
	Str    string
	Bytes  []byte
	Num    float64
	Offset int64
}

// SyntaxError reports malformed JSON with the byte offset of the problem.
type SyntaxError struct {
	Offset int64
	Msg    string
}

// Error implements the error interface.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("jsontext: syntax error at offset %d: %s", e.Offset, e.Msg)
}

// Lexer reads JSON tokens from a byte slice or an io.Reader. Either
// way it scans the window data[pos:]: a slice is one window holding the
// whole input, and a reader refills the window in place (see fill).
type Lexer struct {
	// r is the reader input; nil when data is the whole input.
	r io.Reader
	// data is the window and pos its next unread byte; base is the input
	// offset of data[0].
	data []byte
	pos  int
	base int64
	// mark is the window index of the current token's first byte. A
	// refill keeps data[mark:], so a token's bytes stay contiguous and
	// an escape-free string is returned as a view into the window.
	mark int
	// err is the first read error. It is reported once the bytes that
	// came with it are consumed, and from every later refill: a reader
	// is never read again after it failed.
	err error
	// buf backs the window for reader input. It is kept across Reset and
	// pooling; slice input never allocates it.
	buf []byte
	// raw enables raw-string mode: TokStr tokens carry Bytes instead of
	// a materialized Str (see Token and RawStrings).
	raw bool
	// strBuf is reused across string tokens to avoid per-token
	// allocations when strings contain escapes.
	strBuf []byte
	// strCache interns short string tokens: NDJSON repeats the same few
	// record keys (and enum-like values) on every line, so after the
	// first occurrence a repeated string costs zero allocations — the
	// map lookup keyed by string(buf) does not copy. The cache stops
	// growing at maxCachedStrs and survives Reset, so pooled lexers
	// share hot keys across the chunks of a whole run.
	strCache map[string]string
}

// windowSize is the initial capacity of a reader's window. The window
// grows only for a token longer than it.
const windowSize = 64 << 10

// String-cache bounds: values longer than maxCachedStrLen are almost
// certainly payload (tweet texts, URLs), not keys, and a full cache
// keeps serving its existing entries without admitting new ones.
const (
	maxCachedStrLen = 64
	maxCachedStrs   = 4096
)

// NewLexer returns a lexer reading from r.
func NewLexer(r io.Reader) *Lexer {
	l := new(Lexer)
	l.Reset(r)
	return l
}

// lexerPool recycles lexers — each carries its reader window, the
// string scratch and the string cache, which is exactly the per-chunk
// state worth keeping warm across map tasks.
var lexerPool = sync.Pool{
	New: func() any { return new(Lexer) },
}

// AcquireLexer returns a pooled lexer reading from r. Release it when
// the stream is fully consumed; an un-released lexer is simply garbage
// collected.
func AcquireLexer(r io.Reader) *Lexer {
	l := lexerPool.Get().(*Lexer)
	l.Reset(r)
	return l
}

// AcquireLexerBytes returns a pooled lexer reading data directly.
// Release it when the input is fully consumed.
func AcquireLexerBytes(data []byte) *Lexer {
	l := lexerPool.Get().(*Lexer)
	l.ResetBytes(data)
	return l
}

// Release returns the lexer to the pool. The caller must not use the
// lexer afterwards.
func (l *Lexer) Release() {
	// Drop the stream and input references so the pool does not pin
	// them, and a window grown for one long token; raw mode is
	// per-stream, not per-lexer.
	l.ResetBytes(nil)
	if len(l.buf) > windowSize {
		l.buf = nil
	}
	l.raw = false
	lexerPool.Put(l)
}

// Reset redirects the lexer to a new stream, keeping the window, the
// scratch and the string cache.
func (l *Lexer) Reset(r io.Reader) {
	l.ResetBytes(l.buf[:0])
	l.r = r
}

// ResetBytes redirects the lexer to read directly from data, keeping
// the scratch and the string cache. Escape-free strings are returned
// as views into data.
func (l *Lexer) ResetBytes(data []byte) {
	l.r, l.data, l.pos, l.base, l.mark, l.err = nil, data, 0, 0, 0, nil
}

// RawStrings toggles raw-string mode for the current stream: when on,
// TokStr tokens carry Bytes (a transient view, see Token) instead of a
// materialized Str. The mode resets to off on Release.
func (l *Lexer) RawStrings(on bool) { l.raw = on }

// Offset returns the number of bytes consumed so far.
func (l *Lexer) Offset() int64 { return l.base + int64(l.pos) }

// Literal returns the text of the number token Next last returned, a
// view into the window valid only until the next call to Next, so a
// reader can tell an integer literal from 1.0 or 1e2, which Num does
// not.
func (l *Lexer) Literal() []byte { return l.data[l.mark:l.pos] }

func (l *Lexer) errorf(off int64, format string, args ...any) error {
	return &SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// fill reads more input once the window is exhausted. It keeps
// data[mark:], the current token's bytes, moving them to the front of
// buf, and grows buf only when they fill it. A read error is reported
// after any bytes that came with it, and then from every later call,
// so a failed reader is never read again; 100 consecutive empty reads
// fail with io.ErrNoProgress the same way, and slice input ends with
// io.EOF.
func (l *Lexer) fill() error {
	if l.err != nil {
		return l.err
	}
	if l.r == nil {
		return io.EOF
	}
	keep := l.mark
	n := len(l.data) - keep
	if keep > 0 || n == len(l.buf) {
		buf := l.buf
		if n == len(buf) {
			buf = make([]byte, max(windowSize, 2*len(buf)))
		}
		copy(buf, l.data[keep:])
		l.buf = buf
		l.base += int64(keep)
		l.pos -= keep
		l.mark -= keep
	}
	for empty := 0; empty < 100; empty++ {
		m, err := l.r.Read(l.buf[n:])
		n += m
		l.data = l.buf[:n]
		if err != nil {
			l.err = err
			if m > 0 {
				return nil
			}
			return err
		}
		if m > 0 {
			return nil
		}
	}
	l.err = io.ErrNoProgress
	return l.err
}

// cut reports a token that the end of input cut short: a syntax error
// with msg when the input simply ended, or the read error that ended
// it, unwrapped, so that callers can tell a failed read from malformed
// JSON.
func (l *Lexer) cut(err error, off int64, msg string) error {
	if err != io.EOF {
		return err
	}
	return l.errorf(off, "%s", msg)
}

func (l *Lexer) readByte() (byte, error) {
	if l.pos == len(l.data) {
		if err := l.fill(); err != nil {
			return 0, err
		}
	}
	b := l.data[l.pos]
	l.pos++
	return b, nil
}

// skipSpace consumes insignificant whitespace and reports io.EOF at the
// end of input. It marks the next token's first byte.
func (l *Lexer) skipSpace() error {
	if l.pos < len(l.data) && l.data[l.pos] > ' ' {
		l.mark = l.pos
		return nil
	}
	for {
		i := spaces(l.data, l.pos)
		l.pos, l.mark = i, i
		if i < len(l.data) {
			return nil
		}
		if err := l.fill(); err != nil {
			return err
		}
	}
}

// spaces returns the index of the first byte at or after i in data that
// is not whitespace, or len(data).
func spaces(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// nextByte returns the index of the first byte at or after i in data
// that is not whitespace, or len(data): spaces, with the common case,
// no whitespace, inlined.
func nextByte(data []byte, i int) int {
	if i < len(data) && data[i] > ' ' {
		return i
	}
	return spaces(data, i)
}

// Next returns the next token. At the end of the input it returns a token
// with Kind TokEOF and a nil error; any other error is either an
// unexpected io error or a *SyntaxError.
func (l *Lexer) Next() (Token, error) { return l.next(true) }

// NextKind reads the next token as Next does, making every check Next
// makes, and returns only its kind and offset: it is the read for
// callers that ignore a scalar's content. It skips what Next does only
// to deliver the content: replacing invalid UTF-8 in a string, which
// is never an error, and converting a number to float64, though a
// number out of float64's range is still an error.
func (l *Lexer) NextKind() (TokenKind, int64, error) {
	if l.skipSpace() == nil {
		if k := l.scalar(); k != TokEOF {
			return k, l.base + int64(l.mark), nil
		}
	}
	tok, err := l.next(false)
	return tok.Kind, tok.Offset, err
}

// scalar is NextKind's fast path, for the scalars that lie whole in the
// window and need no more than a scan to check: a string with no escape,
// an integer of at most maxPlainNumber digits with no sign, leading zero,
// fraction or exponent, and the literals. It reads such a token, which
// starts at pos, and returns its kind, ending where next ends; for any
// other token it consumes nothing and returns TokEOF.
func (l *Lexer) scalar() TokenKind {
	data, i := l.data, l.pos
	switch c := data[i]; {
	case c == '"':
		if j, _ := scanPlain(data, i+1); j < len(data) && data[j] == '"' {
			l.pos = j + 1
			return TokStr
		}
	case c >= '1' && c <= '9':
		j := i + 1
		for j < len(data) && data[j] >= '0' && data[j] <= '9' {
			j++
		}
		if j < len(data) && j-i <= maxPlainNumber && data[j] != '.' && data[j] != 'e' && data[j] != 'E' {
			l.pos = j
			return TokNum
		}
	case c == 'n':
		if len(data)-i >= 4 && string(data[i:i+4]) == "null" {
			l.pos = i + 4
			return TokNull
		}
	case c == 't':
		if len(data)-i >= 4 && string(data[i:i+4]) == "true" {
			l.pos = i + 4
			return TokTrue
		}
	case c == 'f':
		if len(data)-i >= 5 && string(data[i:i+5]) == "false" {
			l.pos = i + 5
			return TokFalse
		}
	}
	return TokEOF
}

// next reads the next token; with content false it checks a string or
// number as Next does but returns the token's kind and offset only.
func (l *Lexer) next(content bool) (Token, error) {
	if err := l.skipSpace(); err != nil {
		if err == io.EOF {
			return Token{Kind: TokEOF, Offset: l.Offset()}, nil
		}
		return Token{}, err
	}
	start := l.Offset()
	b, err := l.readByte()
	if err != nil {
		return Token{}, err
	}
	switch b {
	case '{':
		return Token{Kind: TokBeginObject, Offset: start}, nil
	case '}':
		return Token{Kind: TokEndObject, Offset: start}, nil
	case '[':
		return Token{Kind: TokBeginArray, Offset: start}, nil
	case ']':
		return Token{Kind: TokEndArray, Offset: start}, nil
	case ',':
		return Token{Kind: TokComma, Offset: start}, nil
	case ':':
		return Token{Kind: TokColon, Offset: start}, nil
	case '"':
		b, err := l.scanString(start, content)
		switch {
		case err != nil:
			return Token{}, err
		case !content:
			return Token{Kind: TokStr, Offset: start}, nil
		case l.raw:
			return Token{Kind: TokStr, Bytes: b, Offset: start}, nil
		}
		return Token{Kind: TokStr, Str: l.internString(b), Offset: start}, nil
	case 't':
		if err := l.expectWord(start, "rue"); err != nil {
			return Token{}, err
		}
		return Token{Kind: TokTrue, Offset: start}, nil
	case 'f':
		if err := l.expectWord(start, "alse"); err != nil {
			return Token{}, err
		}
		return Token{Kind: TokFalse, Offset: start}, nil
	case 'n':
		if err := l.expectWord(start, "ull"); err != nil {
			return Token{}, err
		}
		return Token{Kind: TokNull, Offset: start}, nil
	default:
		if b == '-' || (b >= '0' && b <= '9') {
			n, err := l.scanNumber(start, b, content)
			if err != nil {
				return Token{}, err
			}
			return Token{Kind: TokNum, Num: n, Offset: start}, nil
		}
		return Token{}, l.errorf(start, "unexpected character %q", string(rune(b)))
	}
}

// expectWord consumes the remainder of a keyword (true/false/null).
func (l *Lexer) expectWord(start int64, rest string) error {
	for i := 0; i < len(rest); i++ {
		b, err := l.readByte()
		if err != nil {
			return l.cut(err, start, "invalid literal")
		}
		if b != rest[i] {
			return l.errorf(start, "invalid literal")
		}
	}
	return nil
}

// scanString reads the body of a string; the opening quote has been
// consumed. It decodes escapes including \uXXXX surrogate pairs and
// returns the decoded bytes, valid until the next call to Next: a view
// into the window for escape-free strings, into the lexer's scratch
// otherwise. With sanitize it replaces invalid UTF-8 with U+FFFD, as
// encoding/json does; a caller that ignores the text passes false.
func (l *Lexer) scanString(start int64, sanitize bool) ([]byte, error) {
	// Most strings contain no escapes, and a refill keeps the token's
	// bytes, so the whole body sits contiguously in the window and needs
	// no copy at all.
	high, err := l.span(start)
	if err != nil {
		return nil, err
	}
	seg := l.data[l.mark+1 : l.pos]
	if l.data[l.pos] == '"' {
		l.pos++
		if high && sanitize && !utf8.Valid(seg) {
			seg = sanitizeUTF8(seg)
		}
		return seg, nil
	}
	// Decode the rest into the scratch, which owns the clean prefix from
	// here on, so the window no longer needs to keep the token. Each
	// pass decodes the byte the last span stopped at, then spans again.
	buf := append(l.strBuf[:0], seg...)
	l.mark = l.pos
	for {
		switch b := l.data[l.pos]; {
		case b == '"':
			l.pos++
			// Escapes decode to valid UTF-8, so only a span with a
			// non-ASCII byte can make buf invalid.
			if high && sanitize && !utf8.Valid(buf) {
				buf = sanitizeUTF8(buf)
			}
			l.strBuf = buf
			return buf, nil
		case b == '\\':
			l.pos++
			esc, err := l.readByte()
			if err != nil {
				return nil, l.cut(err, start, "unterminated escape")
			}
			switch esc {
			case '"':
				buf = append(buf, '"')
			case '\\':
				buf = append(buf, '\\')
			case '/':
				buf = append(buf, '/')
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r, err := l.scanHex4(start)
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					if r, err = l.pairSurrogate(start, r); err != nil {
						return nil, err
					}
				}
				buf = utf8.AppendRune(buf, r)
			default:
				return nil, l.errorf(l.Offset()-1, "invalid escape character %q", string(rune(esc)))
			}
		default:
			return nil, l.errorf(l.Offset(), "control character %#x in string", b)
		}
		l.mark = l.pos
		h, err := l.span(start)
		if err != nil {
			return nil, err
		}
		high = high || h
		buf = append(buf, l.data[l.mark:l.pos]...)
	}
}

// Word-at-a-time constants: a byte's lowest and highest bit in each of
// a word's eight bytes.
const (
	lsbs uint64 = 0x0101010101010101
	msbs uint64 = 0x8080808080808080
)

// special returns a word whose lowest set bit is the high bit of the
// first byte of w (little-endian) that is '"', '\' or below 0x20, and
// zero when there is none. Each term is a has-zero-byte test (the last
// one for bytes below 0x20), exact up to its first match: a borrow may
// flag bytes above it, never below.
func special(w uint64) uint64 {
	q := w ^ (lsbs * '"')
	e := w ^ (lsbs * '\\')
	return ((q-lsbs)&^q | (e-lsbs)&^e | (w-lsbs*0x20)&^w) & msbs
}

// span advances pos over a string body to the next '"', '\' or control
// byte, eight bytes at a time, refilling the window as needed, and
// reports whether any byte it passed had its high bit set, the only
// bytes that can be invalid UTF-8. The end of input ends the string
// unterminated.
func (l *Lexer) span(start int64) (high bool, err error) {
	for {
		i, h := scanPlain(l.data, l.pos)
		l.pos, high = i, high || h
		if i < len(l.data) {
			return high, nil
		}
		if err := l.fill(); err != nil {
			return false, l.cut(err, start, "unterminated string")
		}
	}
}

// scanPlain returns the index of the first '"', '\' or control byte at
// or after i in data, or len(data), and whether a byte before it has its
// high bit set. It reads eight bytes at a time.
func scanPlain(data []byte, i int) (int, bool) {
	var seen uint64
	for ; i+8 <= len(data); i += 8 {
		w := binary.LittleEndian.Uint64(data[i:])
		if m := special(w); m != 0 {
			n := bits.TrailingZeros64(m) / 8
			return i + n, (seen|w&(1<<(8*n)-1))&msbs != 0
		}
		seen |= w
	}
	for ; i < len(data); i++ {
		if c := data[i]; c == '"' || c == '\\' || c < 0x20 {
			break
		}
		seen |= uint64(data[i])
	}
	return i, seen&msbs != 0
}

// UnquotePrefix decodes the JSON string literal at the start of b
// exactly as the lexer decodes a string token — escapes, surrogate
// pairs, U+FFFD for invalid UTF-8 — and returns the decoded string
// with the literal's length in bytes, quotes included. It reads b only
// up to the literal's end. Error offsets count from the start of b.
func UnquotePrefix(b []byte) (string, int, error) {
	l := Lexer{data: b, pos: 1}
	if len(b) == 0 || b[0] != '"' {
		return "", 0, l.errorf(0, "expected '\"'")
	}
	s, err := l.scanString(0, true)
	if err != nil {
		return "", 0, err
	}
	return string(s), l.pos, nil
}

// sanitizeUTF8 replaces invalid UTF-8 sequences in seg with U+FFFD,
// decoding runes straight off the byte slice — no string conversion.
// The result is freshly allocated (invalid input is the rare case) so
// it never aliases the lexer's scratch or input.
func sanitizeUTF8(seg []byte) []byte {
	clean := make([]byte, 0, len(seg)+utf8.UTFMax)
	for i := 0; i < len(seg); {
		r, size := utf8.DecodeRune(seg[i:])
		clean = utf8.AppendRune(clean, r)
		i += size
	}
	return clean
}

// InternBytes materializes a raw-mode token's bytes as a string,
// serving repeats of short strings (object keys, enum-like values) from
// the lexer's cache so they cost zero allocations after the first
// occurrence.
func (l *Lexer) InternBytes(b []byte) string { return l.internString(b) }

// internString materializes a string token, serving repeats of short
// strings from the cache. The map lookup keyed by string(buf) compiles
// to a no-copy probe, so a cache hit allocates nothing.
func (l *Lexer) internString(buf []byte) string {
	if len(buf) > maxCachedStrLen {
		return string(buf)
	}
	if s, ok := l.strCache[string(buf)]; ok {
		return s
	}
	s := string(buf)
	if l.strCache == nil {
		l.strCache = make(map[string]string, 64)
	}
	if len(l.strCache) < maxCachedStrs {
		l.strCache[s] = s
	}
	return s
}

// scanHex4 reads four hex digits of a \u escape.
func (l *Lexer) scanHex4(start int64) (rune, error) {
	var r rune
	for i := 0; i < 4; i++ {
		b, err := l.readByte()
		if err != nil {
			return 0, l.cut(err, start, "short \\u escape")
		}
		var d rune
		switch {
		case b >= '0' && b <= '9':
			d = rune(b - '0')
		case b >= 'a' && b <= 'f':
			d = rune(b-'a') + 10
		case b >= 'A' && b <= 'F':
			d = rune(b-'A') + 10
		default:
			return 0, l.errorf(l.Offset()-1, "invalid hex digit %q in \\u escape", string(rune(b)))
		}
		r = r<<4 | d
	}
	return r, nil
}

// pairSurrogate completes the UTF-16 pair whose first half r a \u
// escape has just decoded, as encoding/json does: when the next six
// bytes are a \u escape of the matching low surrogate it consumes them
// and returns the pair's rune; otherwise it consumes nothing and
// returns U+FFFD, and whatever follows decodes on its own.
func (l *Lexer) pairSurrogate(start int64, r rune) (rune, error) {
	back := l.Offset()
	if b, err := l.readByte(); err != nil || b != '\\' {
		l.pos = int(back - l.base)
		return utf8.RuneError, nil
	}
	if b, err := l.readByte(); err != nil || b != 'u' {
		l.pos = int(back - l.base)
		return utf8.RuneError, nil
	}
	r2, err := l.scanHex4(start)
	if err != nil {
		return 0, err
	}
	if pair := utf16.DecodeRune(r, r2); pair != utf8.RuneError {
		return pair, nil
	}
	l.pos = int(back - l.base)
	return utf8.RuneError, nil
}

// scanDigits consumes a run of ASCII digits and returns its length.
// The end of input ends the run; a read error cuts the number short
// and is returned.
func (l *Lexer) scanDigits() (int, error) {
	n := 0
	for {
		i, data := l.pos, l.data
		for i < len(data) && data[i] >= '0' && data[i] <= '9' {
			i++
		}
		n += i - l.pos
		l.pos = i
		if i < len(data) {
			return n, nil
		}
		if err := l.fill(); err != nil {
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
	}
}

// scanRequiredDigits consumes the digits after a number's '.' or exponent
// mark, of which there must be at least one.
func (l *Lexer) scanRequiredDigits(start int64) error {
	n, err := l.scanDigits()
	if err == nil && n == 0 {
		err = l.errorf(start, "malformed number")
	}
	return err
}

// peekByte returns the next byte without consuming it, and false at
// the end of input. A read error is returned: it cuts a number short.
func (l *Lexer) peekByte() (byte, bool, error) {
	if l.pos == len(l.data) {
		if err := l.fill(); err != nil {
			if err == io.EOF {
				return 0, false, nil
			}
			return 0, false, err
		}
	}
	return l.data[l.pos], true, nil
}

// maxPlainNumber is the longest number without an exponent that cannot
// exceed float64's range: at most 308 digits stay below 1e308.
const maxPlainNumber = 308

// scanNumber reads a JSON number whose first byte is first, validating
// the RFC 8259 grammar. Integers short enough to be exact in an int64
// are converted directly; everything else goes through ParseFloat over
// the token's bytes in the window. Without convert it returns 0, and
// calls ParseFloat only where its range error can occur. A read error
// met before the number is known to end is returned as is.
func (l *Lexer) scanNumber(start int64, first byte, convert bool) (float64, error) {
	isInt, exp := true, false
	b := first
	if b == '-' {
		var err error
		b, err = l.readByte()
		if err != nil {
			return 0, l.cut(err, start, "malformed number")
		}
		if b < '0' || b > '9' {
			return 0, l.errorf(start, "malformed number")
		}
	}
	// Integer part: a leading zero cannot be followed by more digits.
	if b != '0' {
		if _, err := l.scanDigits(); err != nil {
			return 0, err
		}
	} else {
		nb, ok, err := l.peekByte()
		if err != nil {
			return 0, err
		}
		if ok && nb >= '0' && nb <= '9' {
			return 0, l.errorf(start, "leading zero in number")
		}
	}
	// Fraction.
	nb, ok, err := l.peekByte()
	if err != nil {
		return 0, err
	}
	if ok && nb == '.' {
		l.pos++
		isInt = false
		if err := l.scanRequiredDigits(start); err != nil {
			return 0, err
		}
	}
	// Exponent.
	nb, ok, err = l.peekByte()
	if err != nil {
		return 0, err
	}
	if ok && (nb == 'e' || nb == 'E') {
		l.pos++
		isInt, exp = false, true
		sb, ok, err := l.peekByte()
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, l.errorf(start, "malformed exponent")
		}
		if sb == '+' || sb == '-' {
			l.pos++
		}
		if err := l.scanRequiredDigits(start); err != nil {
			return 0, err
		}
	}
	raw := l.data[l.mark:l.pos]
	if !convert && !exp && len(raw) <= maxPlainNumber {
		return 0, nil
	}
	// Integer fast path: up to 18 digits fits int64 exactly, and
	// float64(int64) rounds to nearest just like ParseFloat would on
	// the same exact decimal value — identical results, no allocation.
	if digits := raw; isInt {
		if digits[0] == '-' {
			digits = digits[1:]
		}
		if len(digits) <= 18 {
			var n int64
			for _, d := range digits {
				n = n*10 + int64(d-'0')
			}
			if raw[0] == '-' {
				n = -n
			}
			return float64(n), nil
		}
	}
	f, err := strconv.ParseFloat(string(raw), 64)
	if err != nil {
		return 0, l.errorf(start, "malformed number %q", raw)
	}
	return f, nil
}
