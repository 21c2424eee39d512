package jsontext

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func mustParse(t *testing.T, src string) value.Value {
	t.Helper()
	v, err := ParseBytes([]byte(src))
	if err != nil {
		t.Fatalf("ParseBytes(%q): %v", src, err)
	}
	return v
}

func TestParseScalars(t *testing.T) {
	cases := []struct {
		src  string
		want value.Value
	}{
		{"null", value.Null{}},
		{"true", value.Bool(true)},
		{"false", value.Bool(false)},
		{"0", value.Num(0)},
		{"-0", value.Num(0)},
		{"42", value.Num(42)},
		{"-17", value.Num(-17)},
		{"3.25", value.Num(3.25)},
		{"-0.5", value.Num(-0.5)},
		{"1e3", value.Num(1000)},
		{"1E3", value.Num(1000)},
		{"2.5e-2", value.Num(0.025)},
		{"1e+2", value.Num(100)},
		{`""`, value.Str("")},
		{`"hello"`, value.Str("hello")},
		{`"héllo"`, value.Str("héllo")},
		{`"a\"b"`, value.Str(`a"b`)},
		{`"\\\/\b\f\n\r\t"`, value.Str("\\/\b\f\n\r\t")},
		{`"A"`, value.Str("A")},
		{`"é"`, value.Str("é")},
		{`"😀"`, value.Str("😀")},        // surrogate pair
		{`"\uD800x"`, value.Str("�x")}, // lone high surrogate
		{"  42  ", value.Num(42)},
		{"\n\t17", value.Num(17)},
	}
	for _, c := range cases {
		got := mustParse(t, c.src)
		if !value.Equal(got, c.want) {
			t.Errorf("ParseBytes(%q) = %s, want %s", c.src, value.JSON(got), value.JSON(c.want))
		}
	}
}

func TestParseComposites(t *testing.T) {
	cases := []struct {
		src  string
		want value.Value
	}{
		{"[]", value.Array{}},
		{"{}", value.MustRecord()},
		{"[1,2,3]", value.Arr(value.Num(1), value.Num(2), value.Num(3))},
		{"[1, [2, [3]]]", value.Arr(value.Num(1), value.Arr(value.Num(2), value.Arr(value.Num(3))))},
		{`{"a":1}`, value.Obj("a", value.Num(1))},
		{`{"a":1,"b":[true,null]}`, value.Obj("a", value.Num(1), "b", value.Arr(value.Bool(true), value.Null{}))},
		{`{"nested":{"x":{"y":"z"}}}`, value.Obj("nested", value.Obj("x", value.Obj("y", value.Str("z"))))},
		{`[{},{"a":[]}]`, value.Arr(value.MustRecord(), value.Obj("a", value.Array{}))},
		{` { "a" : [ 1 , 2 ] } `, value.Obj("a", value.Arr(value.Num(1), value.Num(2)))},
	}
	for _, c := range cases {
		got := mustParse(t, c.src)
		if !value.Equal(got, c.want) {
			t.Errorf("ParseBytes(%q) = %s, want %s", c.src, value.JSON(got), value.JSON(c.want))
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"nul",
		"truex", // trailing junk inside literal? 'true' then 'x' -> trailing data
		"tru",
		"falsy",
		"-",
		"01", // leading zero
		"1.", // missing fraction digits
		"1e", // missing exponent digits
		"1e+",
		".5",
		"+1",
		`"unterminated`,
		`"bad \q escape"`,
		`"\u12"`,
		`"\ux000"`,
		"\"ctrl\x01char\"",
		"[1,2",
		"[1 2]",
		"[1,]",
		"[,1]",
		"{",
		`{"a"}`,
		`{"a":}`,
		`{"a":1,}`,
		`{"a":1 "b":2}`,
		`{a:1}`,
		`{"a":1,"a":2}`, // duplicate key: ill-formed per the paper
		"}",
		"]",
		",",
		":",
		"[}",
		"1 2 3 oops",
	}
	for _, src := range bad {
		if v, err := ParseBytes([]byte(src)); err == nil {
			t.Errorf("ParseBytes(%q) succeeded with %s, want error", src, value.JSON(v))
		}
	}
}

func TestSyntaxErrorHasOffset(t *testing.T) {
	_, err := ParseBytes([]byte(`{"a": bogus}`))
	var se *SyntaxError
	if !errors.As(err, &se) {
		t.Fatalf("error %v is not a *SyntaxError", err)
	}
	if se.Offset != 6 {
		t.Errorf("offset = %d, want 6", se.Offset)
	}
	if !strings.Contains(se.Error(), "offset 6") {
		t.Errorf("message %q lacks offset", se.Error())
	}
}

func TestDuplicateKeyErrorNamesKey(t *testing.T) {
	_, err := ParseBytes([]byte(`{"dup":1,"dup":2}`))
	if err == nil || !strings.Contains(err.Error(), `"dup"`) {
		t.Errorf("duplicate key error = %v", err)
	}
}

// TestMaxDepth pins the nesting bound at its edge: a scalar inside
// MaxDepth arrays or objects parses, one inside MaxDepth+1 is rejected.
func TestMaxDepth(t *testing.T) {
	nest := map[string]func(n int) string{
		"arrays":  func(n int) string { return strings.Repeat("[", n) + "1" + strings.Repeat("]", n) },
		"objects": func(n int) string { return strings.Repeat(`{"a":`, n) + "1" + strings.Repeat("}", n) },
	}
	for name, deep := range nest {
		if _, err := ParseBytes([]byte(deep(MaxDepth))); err != nil {
			t.Errorf("%s %d deep rejected: %v", name, MaxDepth, err)
		}
		if _, err := NewParser(strings.NewReader(deep(MaxDepth))).Next(); err != nil {
			t.Errorf("%s %d deep rejected by the stream parser: %v", name, MaxDepth, err)
		}
		if _, err := ParseBytes([]byte(deep(MaxDepth + 1))); err == nil || !strings.Contains(err.Error(), "nesting deeper than 512") {
			t.Errorf("%s %d deep: err = %v, want a nesting error", name, MaxDepth+1, err)
		}
		if _, err := NewParser(strings.NewReader(deep(MaxDepth + 1))).Next(); err == nil || !strings.Contains(err.Error(), "nesting deeper than 512") {
			t.Errorf("%s %d deep, stream parser: err = %v, want a nesting error", name, MaxDepth+1, err)
		}
	}
}

func TestStreamMultipleValues(t *testing.T) {
	src := "{\"a\":1}\n{\"a\":2}\n[3]\n\"four\"\ntrue\n"
	p := NewParser(strings.NewReader(src))
	var got []value.Value
	for {
		v, err := p.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, v)
	}
	if len(got) != 5 {
		t.Fatalf("parsed %d values, want 5", len(got))
	}
	if !value.Equal(got[2], value.Arr(value.Num(3))) {
		t.Errorf("third value = %s", value.JSON(got[2]))
	}
}

func TestStreamConcatenatedWithoutNewlines(t *testing.T) {
	src := `{"a":1} {"b":2}{"c":3}`
	vs, err := ParseAll([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 {
		t.Fatalf("parsed %d values, want 3", len(vs))
	}
}

func TestStreamErrorMidway(t *testing.T) {
	src := "{\"a\":1}\n{\"bad\n"
	p := NewParser(strings.NewReader(src))
	if _, err := p.Next(); err != nil {
		t.Fatalf("first value: %v", err)
	}
	if _, err := p.Next(); err == nil || err == io.EOF {
		t.Errorf("second value error = %v, want syntax error", err)
	}
}

func TestParseAgainstEncodingJSONOracle(t *testing.T) {
	srcs := []string{
		`{"menu":{"id":"file","value":"File","popup":{"menuitem":[{"value":"New","onclick":"CreateNewDoc()"},{"value":"Open","onclick":"OpenDoc()"}]}}}`,
		`[1.5,-2e10,0.0001,true,false,null,"ünï©ödé ☃"]`,
		`{"empty_obj":{},"empty_arr":[],"nested":[[[[1]]]]}`,
		`"😀 and text"`,
		`-123.456e-7`,
		// A surrogate that does not pair with the next escape decodes
		// to U+FFFD, and the next escape decodes on its own.
		`"\ud800\u0041"`, `"\ud800\n"`, `"\udc00\udc00"`,
		`"\ud800\ud800\udc00"`, `{"\ud83d\ude00\ud83d":"\udbff\udfff"}`,
	}
	for _, src := range srcs {
		v, err := ParseBytes([]byte(src))
		if err != nil {
			t.Errorf("ParseBytes(%q): %v", src, err)
			continue
		}
		var oracle any
		if err := json.Unmarshal([]byte(src), &oracle); err != nil {
			t.Fatalf("oracle rejects %q: %v", src, err)
		}
		if got := value.ToGo(v); !reflect.DeepEqual(got, oracle) {
			t.Errorf("ParseBytes(%q):\n got %#v\nwant %#v", src, got, oracle)
		}
	}
}

func TestPropertyRoundTripThroughCanonicalJSON(t *testing.T) {
	// Render random values with value.JSON and parse them back.
	f := func(seed uint64) bool {
		r := seed | 1
		next := func(n int) int {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			return int(r % uint64(n))
		}
		var gen func(depth int) value.Value
		gen = func(depth int) value.Value {
			max := 6
			if depth <= 0 {
				max = 4
			}
			switch next(max) {
			case 0:
				return value.Null{}
			case 1:
				return value.Bool(next(2) == 0)
			case 2:
				return value.Num(float64(next(10000)) / 16)
			case 3:
				runes := []rune("ab\"\\\n\té😀")
				var sb strings.Builder
				for i := 0; i < next(6); i++ {
					sb.WriteRune(runes[next(len(runes))])
				}
				return value.Str(sb.String())
			case 4:
				var fs []value.Field
				seen := map[string]bool{}
				for i := 0; i < next(4); i++ {
					k := fmt.Sprintf("k%d", next(8))
					if seen[k] {
						continue
					}
					seen[k] = true
					fs = append(fs, value.Field{Key: k, Value: gen(depth - 1)})
				}
				return value.MustRecord(fs...)
			default:
				var elems value.Array
				for i := 0; i < next(4); i++ {
					elems = append(elems, gen(depth-1))
				}
				if elems == nil {
					elems = value.Array{}
				}
				return elems
			}
		}
		v := gen(3)
		back, err := ParseBytes([]byte(value.JSON(v)))
		if err != nil {
			t.Logf("parse %q: %v", value.JSON(v), err)
			return false
		}
		return value.Equal(v, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestParseNumbersMatchStrconv(t *testing.T) {
	srcs := []string{"0", "-0", "1", "9007199254740993", "1.7976931348623157e308", "5e-324", "123456.789012"}
	for _, src := range srcs {
		v := mustParse(t, src)
		want, _ := json.Number(src).Float64()
		if float64(v.(value.Num)) != want {
			t.Errorf("ParseBytes(%q) = %v, want %v", src, v, want)
		}
	}
	// Overflow to +Inf is rejected by ParseFloat? It returns +Inf with err; we reject.
	if _, err := ParseBytes([]byte("1e999999")); err == nil {
		// encoding/json accepts and clamps; we are stricter. Either way,
		// don't produce non-finite numbers.
		v := mustParse(t, "1e999999")
		if math.IsInf(float64(v.(value.Num)), 0) {
			t.Error("parser produced a non-finite number")
		}
	}
}

func TestSplitLines(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&sb, `{"i":%d}`+"\n", i)
	}
	data := []byte(sb.String())
	for _, n := range []int{1, 2, 3, 7, 100} {
		chunks := SplitLines(data, n)
		if len(chunks) == 0 || len(chunks) > n {
			t.Fatalf("SplitLines(n=%d) returned %d chunks", n, len(chunks))
		}
		// Reassembly must be exact.
		var total []byte
		count := 0
		for _, c := range chunks {
			total = append(total, c...)
			vs, err := ParseAll(c)
			if err != nil {
				t.Fatalf("chunk unparseable: %v", err)
			}
			count += len(vs)
		}
		if string(total) != sb.String() {
			t.Fatalf("SplitLines(n=%d) loses bytes", n)
		}
		if count != 100 {
			t.Fatalf("SplitLines(n=%d) yields %d values, want 100", n, count)
		}
	}
	if got := SplitLines(nil, 4); got != nil {
		t.Errorf("SplitLines(nil) = %v", got)
	}
}

// TestSplitLinesMultiLineValues pins the value-safe splitting rule: a
// newline inside a bracketed value or a string literal is not a chunk
// boundary, so pretty-printed JSON survives partitioning. Regression
// for a fuzzer-found input ("[\n]false") whose mid-value newline the
// old splitter cut on, making the parallel pipeline reject input the
// sequential path accepted.
func TestSplitLinesMultiLineValues(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&sb, "{\n  \"i\": %d,\n  \"s\": \"br [ ace \\\" in string\"\n}\n", i)
	}
	sb.WriteString("[\n]false\n")
	data := []byte(sb.String())
	for _, n := range []int{2, 7, 64} {
		count := 0
		for _, c := range SplitLines(data, n) {
			vs, err := ParseAll(c)
			if err != nil {
				t.Fatalf("SplitLines(n=%d) cut inside a value: %v", n, err)
			}
			count += len(vs)
		}
		if count != 52 {
			t.Fatalf("SplitLines(n=%d) yields %d values, want 52", n, count)
		}
	}
}

func TestCountLines(t *testing.T) {
	if got := CountLines([]byte("{\"a\":1}\n\n{\"b\":2}\n  \n{\"c\":3}")); got != 3 {
		t.Errorf("CountLines = %d, want 3", got)
	}
	if got := CountLines(nil); got != 0 {
		t.Errorf("CountLines(nil) = %d", got)
	}
}

func TestLexerTokens(t *testing.T) {
	lex := NewLexer(strings.NewReader(`{"a": [1, true]}`))
	var kinds []TokenKind
	for {
		tok, err := lex.Next()
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, tok.Kind)
		if tok.Kind == TokEOF {
			break
		}
	}
	want := []TokenKind{TokBeginObject, TokStr, TokColon, TokBeginArray, TokNum, TokComma, TokTrue, TokEndArray, TokEndObject, TokEOF}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("kinds = %v, want %v", kinds, want)
	}
}

func TestTokenKindString(t *testing.T) {
	for k := TokEOF; k <= TokColon; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "TokenKind(") {
			t.Errorf("TokenKind(%d).String() = %q", k, s)
		}
	}
	if s := TokenKind(99).String(); !strings.Contains(s, "99") {
		t.Errorf("unknown kind = %q", s)
	}
}

func TestLexerOffsets(t *testing.T) {
	lex := NewLexer(strings.NewReader(`  {"ab": 12}`))
	offsets := []int64{2, 3, 7, 9, 11}
	for i := 0; ; i++ {
		tok, err := lex.Next()
		if err != nil {
			t.Fatal(err)
		}
		if tok.Kind == TokEOF {
			break
		}
		if i < len(offsets) && tok.Offset != offsets[i] {
			t.Errorf("token %d offset = %d, want %d", i, tok.Offset, offsets[i])
		}
	}
}
