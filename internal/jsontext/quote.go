package jsontext

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// AppendQuote appends s to dst as a JSON string literal, exactly as
// encoding/json encodes a string: '"' and '\\' are backslash-escaped,
// \b, \f, \n, \r and \t take their short escapes, other control bytes
// and the HTML-unsafe '<', '>' and '&' become \u00XX, U+2028 and
// U+2029 become \u2028 and \u2029 (they end lines in JavaScript), and
// each byte of invalid UTF-8 becomes \ufffd. Every other byte, DEL
// and valid multi-byte runes included, is copied as is. It is the one
// string writer of the codec, the Repository snapshot and the JSON
// Schema export.
func AppendQuote(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
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
