package types

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestStringRendering(t *testing.T) {
	cases := []struct {
		t    Type
		want string
	}{
		{Null, "Null"},
		{Bool, "Bool"},
		{Num, "Num"},
		{Str, "Str"},
		{Empty, "ε"},
		{rec(), "{}"},
		{tup(), "[]"},
		{rec(fld("a", Num)), "{a: Num}"},
		{rec(fld("a", Num), opt("b", Str)), "{a: Num, b: Str?}"},
		{rec(opt("b", uni(Num, Str))), "{b: (Num + Str)?}"},
		{rec(fld("b", uni(Num, Str))), "{b: Num + Str}"},
		{tup(Num, Str), "[Num, Str]"},
		{rep(Num), "[Num*]"},
		{rep(uni(Num, Str)), "[(Num + Str)*]"},
		{rep(Empty), "[ε*]"},
		{uni(Num, Str), "Num + Str"},
		{uni(Str, Num), "Num + Str"}, // canonical order
		{rec(fld("with space", Num)), `{"with space": Num}`},
		{rec(fld("0digit", Num)), `{"0digit": Num}`},
		{rec(fld("", Num)), `{"": Num}`},
		{rec(fld("x-y", Num)), "{x-y: Num}"},
		{rep(rep(Num)), "[[Num*]*]"},
		{tup(tup(Num), rep(Str)), "[[Num], [Str*]]"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestParseBasics(t *testing.T) {
	cases := []struct {
		src  string
		want Type
	}{
		{"Null", Null},
		{"Bool", Bool},
		{"Num", Num},
		{"Str", Str},
		{"ε", Empty},
		{"Empty", Empty},
		{" Num ", Num},
		{"(Num)", Num},
		{"((Num))", Num},
		{"{}", rec()},
		{"[]", tup()},
		{"{a: Num}", rec(fld("a", Num))},
		{"{a:Num,b:Str?}", rec(fld("a", Num), opt("b", Str))},
		{"{b: (Num + Str)?}", rec(opt("b", uni(Num, Str)))},
		{"{b: Num + Str?}", rec(opt("b", uni(Num, Str)))}, // '?' binds to the field
		{"[Num, Str]", tup(Num, Str)},
		{"[Num*]", rep(Num)},
		{"[(Num + Str)*]", rep(uni(Num, Str))},
		{"[Num + Str*]", rep(uni(Num, Str))}, // star after a full union
		{"[ε*]", rep(Empty)},
		{"Num + Str", uni(Num, Str)},
		{"Str + Num", uni(Num, Str)},
		{`{"with space": Num}`, rec(fld("with space", Num))},
		{`{"esc\"q": Num}`, rec(fld(`esc"q`, Num))},
		{`{"\ud83d\ude00": Num}`, rec(fld("😀", Num))}, // a surrogate pair is one rune
		{`{"A": Num}`, rec(fld("A", Num))},
		{"{x-y: Num}", rec(fld("x-y", Num))},
		{"[[Num*]*]", rep(rep(Num))},
		{"{a: {b: [Bool]}}", rec(fld("a", rec(fld("b", tup(Bool)))))},
	}
	for _, c := range cases {
		got, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		if !Equal(got, c.want) {
			t.Errorf("Parse(%q) = %s, want %s", c.src, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"Nul",
		"Foo",
		"{",
		"{a}",
		"{a:}",
		"{a: Num",
		"{a: Num; b: Str}",
		"[Num",
		"[Num;]",
		"[*]",
		"(Num",
		"Num +",
		"Num Str",
		"{1digit: Num}",
		`{"unterminated: Num}`,
		`{"bad\q": Num}`,
		`{"short\u00": Num}`,
		"{\"raw\x01control\": Num}", // rejected in keys as the lexer rejects it in data
		"{a: Num, a: Str}",          // duplicate key rejected by NewRecord
		"{: Num}",
	}
	for _, src := range bad {
		if got, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded with %s, want error", src, got)
		}
	}
}

func TestParseErrorMentionsOffset(t *testing.T) {
	_, err := Parse("{a: Wrong}")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "offset") {
		t.Errorf("error %q lacks offset info", err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("Bogus")
}

func TestRoundTripExamplesFromPaper(t *testing.T) {
	// Types that appear in Section 2 of the paper.
	srcs := []string{
		"{A: Str?, B: Num + Bool, C: Str?}",
		"{A: (Null + Str)?, B: Bool + Num, C: Str?}",
		"[(Str + {E: Str, F: Num})*]",
		"{l: Bool + Str + {A: Num + Str}, B: Num?}",
	}
	for _, src := range srcs {
		tt, err := Parse(src)
		if err != nil {
			t.Errorf("Parse(%q): %v", src, err)
			continue
		}
		back, err := Parse(tt.String())
		if err != nil {
			t.Errorf("re-Parse(%q): %v", tt.String(), err)
			continue
		}
		if !Equal(tt, back) {
			t.Errorf("round trip changed %q -> %q", src, back)
		}
	}
}

func TestPropertyPrintParseRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := &typeRand{s: seed | 1}
		tt := randomType(r, 4)
		back, err := Parse(tt.String())
		if err != nil {
			t.Logf("Parse(%q): %v", tt.String(), err)
			return false
		}
		if !Equal(tt, back) {
			t.Logf("round trip %q -> %q", tt.String(), back.String())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyIndentParsesBack(t *testing.T) {
	f := func(seed uint64) bool {
		r := &typeRand{s: seed | 1}
		tt := randomType(r, 4)
		back, err := Parse(Indent(tt))
		return err == nil && Equal(tt, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestIndentShape(t *testing.T) {
	tt := rec(fld("a", rec(fld("b", Num))), opt("c", uni(Str, Null)))
	got := Indent(tt)
	want := "{\n  a: {\n    b: Num\n  },\n  c: (Null + Str)?\n}"
	if got != want {
		t.Errorf("Indent:\n%s\nwant:\n%s", got, want)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	cases := []Type{
		Null, Bool, Num, Str, Empty,
		rec(), tup(), rep(Empty),
		rec(fld("a", Num), opt("b", uni(Str, Null))),
		tup(Num, rec(fld("x", rep(Bool)))),
		uni(Num, Str, rec(fld("a", Num)), rep(Str)),
	}
	for _, tt := range cases {
		data, err := MarshalJSON(tt)
		if err != nil {
			t.Errorf("MarshalJSON(%s): %v", tt, err)
			continue
		}
		back, err := UnmarshalJSON(data)
		if err != nil {
			t.Errorf("UnmarshalJSON(%s): %v", data, err)
			continue
		}
		if !Equal(tt, back) {
			t.Errorf("codec round trip %s -> %s", tt, back)
		}
	}
}

func TestCodecErrors(t *testing.T) {
	if _, err := MarshalJSON(nil); err == nil {
		t.Error("MarshalJSON(nil) should fail")
	}
	bad := []string{
		``,
		`{"k":"bogus"}`,
		`{"k":"union","alts":[{"k":"num"}]}`,
		`{"k":"rep"}`,
		`{"k":"record","fields":[{"key":"a"}]}`,
		// The reader is strict: unknown, repeated and case-folded
		// member names, members the kind does not take, nulls and
		// bytes after the document are errors.
		`{"k":"num","x":1}`,
		`{"K":"num"}`,
		`{"k":"num","k":"str"}`,
		`{"k":"record","fields":[{"key":"a","key":"b","type":{"k":"num"}}]}`,
		`{"k":"record","fields":[{"key":"a","type":{"k":"num"},"Opt":true}]}`,
		`{"k":"variants","key":"t","cases":[{"tag":"a","tag":"b","type":{"k":"record"}}]}`,
		`{"k":"num","elem":{"k":"num"}}`,
		`{"k":"tuple","alts":[]}`,
		`{"k":"record","fields":null}`,
		`{"k":"record","fields":[{"key":"a","type":{"k":"num"},"opt":1}]}`,
		`{"k":"variants","collapsed":true,"key":"t","elem":{"k":"record"}}`,
		`{"k":"num"} {"k":"num"}`,
		`{"k":"num"}x`,
		`{"k":"num"`,
	}
	for _, src := range bad {
		if _, err := UnmarshalJSON([]byte(src)); err == nil {
			t.Errorf("UnmarshalJSON(%q) should fail", src)
		}
	}
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := &typeRand{s: seed | 1}
		tt := randomType(r, 4)
		data, err := MarshalJSON(tt)
		if err != nil {
			return false
		}
		back, err := UnmarshalJSON(data)
		return err == nil && Equal(tt, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
