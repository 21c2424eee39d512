package value

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
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

func TestCloneIsDeepAndEqual(t *testing.T) {
	orig := Obj(
		"a", Arr(Num(1), Obj("x", Str("y"))),
		"b", Null{},
	)
	cp := Clone(orig).(*Record)
	if !Equal(orig, cp) {
		t.Fatal("clone not equal to original")
	}
	// Mutate the clone's nested array; the original must be unaffected.
	cp.Fields()[0].Value.(Array)[0] = Num(99)
	if Equal(orig, cp) {
		t.Fatal("mutating clone affected original (shallow copy)")
	}
}

func TestDepth(t *testing.T) {
	cases := []struct {
		v    Value
		want int
	}{
		{Num(1), 1},
		{MustRecord(), 1},
		{Array{}, 1},
		{Obj("a", Num(1)), 2},
		{Arr(Arr(Arr(Num(1)))), 4},
		{Obj("a", Obj("b", Obj("c", Str("deep")))), 4},
	}
	for _, c := range cases {
		if got := Depth(c.v); got != c.want {
			t.Errorf("Depth(%s) = %d, want %d", JSON(c.v), got, c.want)
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

func TestCompareTotalOrder(t *testing.T) {
	// Strictly increasing sequence under Compare.
	seq := []Value{
		Null{},
		Bool(false), Bool(true),
		Num(-1), Num(0), Num(2.5),
		Str(""), Str("a"), Str("b"),
		MustRecord(), Obj("a", Num(1)), Obj("a", Num(2)), Obj("a", Num(2), "b", Num(0)), Obj("b", Num(0)),
		Array{}, Arr(Num(1)), Arr(Num(1), Num(1)), Arr(Num(2)),
	}
	for i := range seq {
		for j := range seq {
			got := Compare(seq[i], seq[j])
			switch {
			case i < j && got >= 0:
				t.Errorf("Compare(%s, %s) = %d, want < 0", JSON(seq[i]), JSON(seq[j]), got)
			case i > j && got <= 0:
				t.Errorf("Compare(%s, %s) = %d, want > 0", JSON(seq[i]), JSON(seq[j]), got)
			case i == j && got != 0:
				t.Errorf("Compare(%s, itself) = %d, want 0", JSON(seq[i]), got)
			}
		}
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

// quickValue builds a bounded random Value for property tests.
func quickValue(rnd *quickRand, depth int) Value {
	max := 6
	if depth <= 0 {
		max = 4 // basic values only
	}
	switch rnd.intn(max) {
	case 0:
		return Null{}
	case 1:
		return Bool(rnd.intn(2) == 0)
	case 2:
		return Num(float64(rnd.intn(1000)) / 4)
	case 3:
		return Str(rnd.str())
	case 4:
		n := rnd.intn(4)
		fields := make([]Field, 0, n)
		seen := map[string]bool{}
		for i := 0; i < n; i++ {
			k := rnd.str()
			if seen[k] {
				continue
			}
			seen[k] = true
			fields = append(fields, Field{Key: k, Value: quickValue(rnd, depth-1)})
		}
		return MustRecord(fields...)
	default:
		n := rnd.intn(4)
		elems := make(Array, n)
		for i := range elems {
			elems[i] = quickValue(rnd, depth-1)
		}
		return elems
	}
}

type quickRand struct{ s uint64 }

func (r *quickRand) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *quickRand) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *quickRand) str() string {
	letters := "abcdefgh"
	n := r.intn(5)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(letters[r.intn(len(letters))])
	}
	return b.String()
}

func TestPropertyCloneEqualAndJSONStable(t *testing.T) {
	f := func(seed uint64) bool {
		rnd := &quickRand{s: seed | 1}
		v := quickValue(rnd, 3)
		cp := Clone(v)
		return Equal(v, cp) && JSON(v) == JSON(cp) && Compare(v, cp) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCompareConsistentWithEqual(t *testing.T) {
	f := func(seed1, seed2 uint64) bool {
		r1 := &quickRand{s: seed1 | 1}
		r2 := &quickRand{s: seed2 | 1}
		a := quickValue(r1, 3)
		b := quickValue(r2, 3)
		eq := Equal(a, b)
		cmp := Compare(a, b)
		if eq != (cmp == 0) {
			return false
		}
		// Antisymmetry.
		return sign(Compare(a, b)) == -sign(Compare(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}
