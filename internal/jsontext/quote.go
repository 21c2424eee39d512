package jsontext

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// AppendQuote appends s to dst as a JSON string literal, exactly as
// encoding/json encodes a string: '"' and '\\' are backslash-escaped,
// \b, \f, \n, \r and \t take their short escapes, other control bytes
// and the HTML-unsafe '<', '>' and '&' become \u00XX, U+2028 and
// U+2029 become \u2028 and \u2029 (they end lines in JavaScript), and
// each byte of invalid UTF-8 becomes \ufffd. Every other byte, DEL
// and valid multi-byte runes included, is copied as is, a run of them
// by one append. It is the one string writer of the codec, the
// Repository snapshot and the JSON Schema export.
func AppendQuote(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		for i < len(s) && safe[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		if b := s[i]; b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			dst = append(dst, asciiEscapes[b]...)
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// QuotedLen returns len(AppendQuote(nil, s)) without writing anything.
func QuotedLen(s string) int {
	n := 2 + len(s)
	for i := 0; i < len(s); {
		for i < len(s) && safe[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		if b := s[i]; b < utf8.RuneSelf {
			n += len(asciiEscapes[b]) - 1
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			n += len(`\ufffd`) - 1
		case r == '\u2028' || r == '\u2029':
			n += len(`\u2028`) - size
		}
		i += size
	}
	return n
}

// safe holds the bytes AppendQuote copies as they are without looking
// further: ASCII from the space to DEL, less '"', '\\', '<', '>' and
// '&'. Bytes of multi-byte runes are not in it.
var safe = func() (t [256]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = asciiEscapes[b] == ""
	}
	return t
}()

// asciiEscapes holds how AppendQuote writes each ASCII byte it
// escapes; "" for the bytes it copies.
var asciiEscapes = func() (t [utf8.RuneSelf]string) {
	for b := 0; b < 0x20; b++ {
		t[b] = `\u00` + string(hexDigits[b>>4]) + string(hexDigits[b&0xf])
	}
	for b, e := range map[byte]string{
		'"': `\"`, '\\': `\\`, '\b': `\b`, '\f': `\f`, '\n': `\n`, '\r': `\r`, '\t': `\t`,
		'<': `\u003c`, '>': `\u003e`, '&': `\u0026`,
	} {
		t[b] = e
	}
	return t
}()
