package value

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestKinds(t *testing.T) {
	cases := []struct {
		v    Value
		want Kind
	}{
		{Null{}, KindNull},
		{Bool(true), KindBool},
		{Num(3.14), KindNum},
		{Str("x"), KindStr},
		{MustRecord(), KindRecord},
		{Array{}, KindArray},
	}
	for _, c := range cases {
		if got := c.v.Kind(); got != c.want {
			t.Errorf("%v.Kind() = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestKindString(t *testing.T) {
	want := []string{"null", "bool", "num", "str", "record", "array"}
	for k, w := range want {
		if got := Kind(k).String(); got != w {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, w)
		}
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestKindCodesMatchPaper(t *testing.T) {
	// The paper's kind table: null=0 bool=1 num=2 str=3 record=4 array=5.
	if KindNull != 0 || KindBool != 1 || KindNum != 2 || KindStr != 3 || KindRecord != 4 || KindArray != 5 {
		t.Fatalf("kind codes diverge from the paper's kind() table")
	}
}

func TestNewRecordRejectsDuplicates(t *testing.T) {
	_, err := NewRecord(Field{"a", Num(1)}, Field{"a", Num(2)})
	if err == nil {
		t.Fatal("NewRecord accepted duplicate keys")
	}
	if !strings.Contains(err.Error(), `"a"`) {
		t.Errorf("error %q does not name the duplicate key", err)
	}
}

func TestNewRecordRejectsNilValue(t *testing.T) {
	if _, err := NewRecord(Field{"a", nil}); err == nil {
		t.Fatal("NewRecord accepted a nil field value")
	}
}

func TestMustRecordPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustRecord did not panic on duplicate keys")
		}
	}()
	MustRecord(Field{"a", Num(1)}, Field{"a", Num(2)})
}

func TestRecordFieldOrderIrrelevant(t *testing.T) {
	a := Obj("x", Num(1), "y", Str("s"))
	b := Obj("y", Str("s"), "x", Num(1))
	if !Equal(a, b) {
		t.Errorf("records differing only in field order are not Equal")
	}
	if JSON(a) != JSON(b) {
		t.Errorf("canonical JSON differs: %s vs %s", JSON(a), JSON(b))
	}
}

func TestRecordAccessors(t *testing.T) {
	r := Obj("b", Num(2), "a", Num(1), "c", Null{})
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	if got := r.Keys(); !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Errorf("Keys = %v", got)
	}
	if got := r.Get("b"); !Equal(got, Num(2)) {
		t.Errorf("Get(b) = %v", got)
	}
	if r.Get("zz") != nil {
		t.Errorf("Get(zz) should be nil")
	}
	if !r.Has("c") || r.Has("d") {
		t.Errorf("Has misreports membership")
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Null{}, Null{}, true},
		{Null{}, Bool(false), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Bool(false), false},
		{Num(1), Num(1), true},
		{Num(1), Num(2), false},
		{Str("a"), Str("a"), true},
		{Str("a"), Str("b"), false},
		{Arr(Num(1), Num(2)), Arr(Num(1), Num(2)), true},
		{Arr(Num(1), Num(2)), Arr(Num(2), Num(1)), false},
		{Arr(Num(1)), Arr(Num(1), Num(1)), false},
		{Obj("a", Num(1)), Obj("a", Num(1)), true},
		{Obj("a", Num(1)), Obj("a", Num(2)), false},
		{Obj("a", Num(1)), Obj("b", Num(1)), false},
		{Obj("a", Num(1)), Obj("a", Num(1), "b", Num(2)), false},
		{nil, nil, true},
		{nil, Null{}, false},
	}
	for _, c := range cases {
		if got := Equal(c.a, c.b); got != c.want {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestNodes(t *testing.T) {
	cases := []struct {
		v    Value
		want int
	}{
		{Num(1), 1},
		{MustRecord(), 1},
		{Array{}, 1},
		{Obj("a", Num(1)), 3},              // record + field + num
		{Arr(Num(1), Num(2)), 3},           // array + 2 nums
		{Obj("a", Arr(Num(1), Num(2))), 5}, // record + field + array + 2 nums
	}
	for _, c := range cases {
		if got := Nodes(c.v); got != c.want {
			t.Errorf("Nodes(%s) = %d, want %d", JSON(c.v), got, c.want)
		}
	}
}

func TestJSONRendering(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Null{}, "null"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Num(0), "0"},
		{Num(-5), "-5"},
		{Num(3.5), "3.5"},
		{Num(1e20), "1e+20"},
		{Str("hi"), `"hi"`},
		{Str("a\"b\\c"), `"a\"b\\c"`},
		{Str("tab\there"), `"tab\there"`},
		{Str("nl\n"), `"nl\n"`},
		{Str("\x01"), `"\u0001"`},
		{Str("héllo"), `"héllo"`},
		{Array{}, "[]"},
		{MustRecord(), "{}"},
		{Obj("b", Num(1), "a", Num(2)), `{"a":2,"b":1}`},
		{Arr(Num(1), Str("x"), Null{}), `[1,"x",null]`},
	}
	for _, c := range cases {
		if got := JSON(c.v); got != c.want {
			t.Errorf("JSON(%#v) = %s, want %s", c.v, got, c.want)
		}
	}
}

func TestJSONRoundTripsThroughEncodingJSON(t *testing.T) {
	// Our canonical rendering must be valid JSON that encoding/json parses
	// back to the same Go shape.
	v := Obj(
		"s", Str("a \"quoted\" string\nwith newline"),
		"n", Num(42.5),
		"arr", Arr(Num(1), Bool(false), Null{}, Obj("k", Str("v"))),
		"empty", MustRecord(),
	)
	var got any
	if err := json.Unmarshal([]byte(JSON(v)), &got); err != nil {
		t.Fatalf("canonical JSON invalid: %v", err)
	}
	want := ToGo(v)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, want)
	}
}

func TestFromGo(t *testing.T) {
	got, err := FromGo(map[string]any{
		"a": 1.5,
		"b": []any{nil, true, "s", map[string]any{"n": 7}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Obj("a", Num(1.5), "b", Arr(Null{}, Bool(true), Str("s"), Obj("n", Num(7))))
	if !Equal(got, want) {
		t.Errorf("FromGo = %s, want %s", JSON(got), JSON(want))
	}
}

func TestFromGoNumericTypes(t *testing.T) {
	ins := []any{int(3), int8(3), int16(3), int32(3), int64(3),
		uint(3), uint8(3), uint16(3), uint32(3), uint64(3), float32(3), float64(3)}
	for _, in := range ins {
		got, err := FromGo(in)
		if err != nil {
			t.Fatalf("FromGo(%T): %v", in, err)
		}
		if !Equal(got, Num(3)) {
			t.Errorf("FromGo(%T) = %v, want Num(3)", in, got)
		}
	}
}

func TestFromGoErrors(t *testing.T) {
	if _, err := FromGo(math.NaN()); err == nil {
		t.Error("FromGo(NaN) should fail")
	}
	if _, err := FromGo(math.Inf(1)); err == nil {
		t.Error("FromGo(+Inf) should fail")
	}
	if _, err := FromGo(struct{}{}); err == nil {
		t.Error("FromGo(struct{}{}) should fail")
	}
	if _, err := FromGo(map[string]any{"a": struct{}{}}); err == nil {
		t.Error("FromGo should propagate nested errors")
	}
	if _, err := FromGo([]any{struct{}{}}); err == nil {
		t.Error("FromGo should propagate nested array errors")
	}
}

func TestToGoFromGoRoundTrip(t *testing.T) {
	v := Obj("a", Arr(Num(1), Str("two"), Null{}), "b", Bool(true))
	back, err := FromGo(ToGo(v))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(v, back) {
		t.Errorf("round trip mismatch: %s vs %s", JSON(v), JSON(back))
	}
}

func TestFromGoPassesThroughValue(t *testing.T) {
	v := Obj("a", Num(1))
	got, err := FromGo(v)
	if err != nil {
		t.Fatal(err)
	}
	if got != Value(v) {
		t.Error("FromGo(Value) should return the value unchanged")
	}
}

func TestObjPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"odd args":   func() { Obj("a") },
		"non-string": func() { Obj(1, Num(1)) },
		"non-value":  func() { Obj("a", 17) },
		"duplicate":  func() { Obj("a", Num(1), "a", Num(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Obj did not panic for %s", name)
				}
			}()
			fn()
		}()
	}
}
