package jsontext

import (
	"encoding/json"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// TestAppendQuoteMatchesEncodingJSON: AppendQuote writes every string
// byte for byte as json.Marshal does, and QuotedLen counts its bytes,
// on the escaping corners, on long runs of bytes copied as they are
// with one escape at the start, the middle or the end, next to
// multi-byte runes, and on random byte strings (invalid UTF-8
// included).
func TestAppendQuoteMatchesEncodingJSON(t *testing.T) {
	check := func(s string) bool {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := AppendQuote([]byte("x"), s)
		if string(got) != "x"+string(want) {
			t.Errorf("AppendQuote(%q) = %s, want %s", s, got[1:], want)
			return false
		}
		if n := QuotedLen(s); n != len(want) {
			t.Errorf("QuotedLen(%q) = %d, want %d", s, n, len(want))
			return false
		}
		return true
	}
	corners := []string{
		"", "plain", `q"uote`, `back\slash`, "<a&b>", "\x00\x01\x1f\x7f",
		"\b\f\n\r\t", "\u2028\u2029", "ünïcødé 😀", "bad\xff\xfe", "\xed\xa0\x80", "\xe2\x80",
	}
	for _, s := range corners {
		check(s)
	}
	run := strings.Repeat("safe bytes ~!#$%()*+,-./0-9:;=?@A-Z[]^_`a-z{|}", 8)
	for _, e := range []string{"", "\"", "\\", "<", "\n", "\x00", "\x7f", "é", "日本", "😀", "\u2028", "\xff", "\xe2\x80"} {
		for _, s := range []string{e + run, run + e, run[:100] + e + run[100:], e + run + e, strings.Repeat(e+"ab", 40)} {
			check(s)
		}
	}
	if err := quick.Check(func(b []byte) bool { return check(string(b)) }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestSkipValue: SkipValue spans exactly the next value, whitespace
// excluded, and rejects what encoding/json rejects.
func TestSkipValue(t *testing.T) {
	for _, v := range []string{
		`0`, `-1.5e3`, `"s\"é"`, `null`, `true`, `[]`, `{}`,
		`{"a":[1,{"b":null}],"a":2}`, `[[],[{}],"x"]`,
	} {
		l := AcquireLexerBytes([]byte(" " + v + " ,"))
		start, err := l.SkipValue(0)
		if err != nil {
			t.Errorf("SkipValue(%s): %v", v, err)
		} else if got := string(l.data[start:l.Offset()]); got != v {
			t.Errorf("SkipValue(%s) spans %s", v, got)
		}
		l.Release()
	}
	for _, v := range []string{
		`[1,]`, `{"a":1,}`, `{"a"}`, `{1:2}`, `[1 2]`, `{"a":1 "b":2}`, `]`, `,`, `[`, `{"a":`,
		strings.Repeat("[", MaxNesting+1) + strings.Repeat("]", MaxNesting+1),
	} {
		if json.Valid([]byte(v)) {
			t.Fatalf("%s is valid JSON", v)
		}
		l := AcquireLexerBytes([]byte(v))
		if _, err := l.SkipValue(0); err == nil {
			t.Errorf("SkipValue(%.20s) accepted it", v)
		}
		l.Release()
	}
	deep := strings.Repeat("[", MaxNesting) + strings.Repeat("]", MaxNesting)
	l := AcquireLexerBytes([]byte(deep))
	defer l.Release()
	if _, err := l.SkipValue(0); err != nil || !json.Valid([]byte(deep)) {
		t.Errorf("nesting at the bound: SkipValue err = %v, json.Valid = %v", err, json.Valid([]byte(deep)))
	}
}

// TestNextMemberStrict: NextMember matches member names exactly and
// rejects unknown, case-folded and repeated ones.
func TestNextMemberStrict(t *testing.T) {
	names := []string{"a", "bc"}
	read := func(doc string, raw bool) ([]int, error) {
		l := AcquireLexerBytes([]byte(doc))
		defer l.Release()
		l.RawStrings(raw)
		if tok, err := l.Next(); err != nil || tok.Kind != TokBeginObject {
			t.Fatalf("%s: no object", doc)
		}
		var got []int
		var seen uint64
		for {
			i, err := l.NextMember(names, &seen)
			if err != nil || i < 0 {
				return got, err
			}
			got = append(got, i)
			if _, err := l.SkipValue(1); err != nil {
				return got, err
			}
		}
	}
	for _, raw := range []bool{false, true} {
		if got, err := read(` { "bc" : 1 , "a":[2] } `, raw); err != nil || len(got) != 2 || got[0] != 1 || got[1] != 0 {
			t.Errorf("raw=%v: members %v, err %v", raw, got, err)
		}
		if got, err := read(`{}`, raw); err != nil || len(got) != 0 {
			t.Errorf("raw=%v: empty object: members %v, err %v", raw, got, err)
		}
		for _, doc := range []string{`{"A":1}`, `{"b":1}`, `{"a":1,"a":2}`, `{"a":1,}`, `{"a" 1}`, `{"a":1 "bc":2}`, `{"a":1`, `{,}`} {
			if _, err := read(doc, raw); err == nil {
				t.Errorf("raw=%v: %s accepted", raw, doc)
			}
		}
	}
}

// TestNextKeySurvivesRefill: NextKey's key is intact after it has read
// the ':', even when reaching the ':' refilled the window and the
// refill overwrote the bytes the key was read from. The key ends at
// and around the end of the first window, before a ':' that follows
// at once or after whitespace, plain or escaped.
func TestNextKeySurvivesRefill(t *testing.T) {
	tail := `,"` + strings.Repeat("y", windowSize+windowSize/2) + `"]`
	for _, key := range []string{`"key"`, `"k\u0065y"`} {
		for _, colon := range []string{":", " \n:"} {
			for k := 0; k < 10; k++ {
				head := `{` + key
				pad := strings.Repeat("x", windowSize-k-len(`["",`)-len(head))
				doc := `["` + pad + `",` + head + colon + `1}` + tail
				l := AcquireLexer(strings.NewReader(doc))
				if _, err := l.Next(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 2; i++ {
					if ok, err := l.NextElem(i); !ok || err != nil {
						t.Fatalf("element %d: %v, %v", i, ok, err)
					}
					if _, _, err := l.NextKind(); err != nil {
						t.Fatal(err)
					}
				}
				if got, _, ok, err := l.NextKey(false); string(got) != "key" || !ok || err != nil {
					t.Errorf("key %s ending %d bytes before the window, then %q: NextKey = %q, %v, %v", key, k, colon, got, ok, err)
				}
				l.Release()
			}
		}
	}
}

// TestNextKeyBeforeBadColon: where the ':' after a key is missing,
// NextKey still returns the key, so that a caller can report a
// duplicate first, and the key is intact also when a refill moved the
// window and the string in place of the ':' was decoded into the
// lexer's scratch.
func TestNextKeyBeforeBadColon(t *testing.T) {
	for _, tc := range []struct{ doc, err string }{
		{`{"key" "x\ny"}`, "offset 7: expected ':' after key, got string"},
		{`{"key" 1}`, "offset 7: expected ':' after key, got number"},
		{`{"key" "\q"}`, "offset 9: invalid escape character"},
		{`{"key"`, "offset 6: expected ':' after key, got end of input"},
	} {
		for _, raw := range []bool{false, true} {
			l := AcquireLexer(iotest.OneByteReader(strings.NewReader(tc.doc)))
			l.RawStrings(raw)
			if _, err := l.Next(); err != nil {
				t.Fatal(err)
			}
			key, off, ok, err := l.NextKey(false)
			if string(key) != "key" || off != 1 || !ok || err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s, raw=%v: NextKey = %q, %d, %v, %v; want \"key\", 1, true and an error at %s", tc.doc, raw, key, off, ok, err, tc.err)
			}
			l.Release()
		}
	}
}
