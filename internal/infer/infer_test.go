package infer

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/jsontext"
	"repro/internal/types"
	"repro/internal/value"
)

func TestInferBasics(t *testing.T) {
	cases := []struct {
		v    value.Value
		want string
	}{
		{value.Null{}, "Null"},
		{value.Bool(true), "Bool"},
		{value.Bool(false), "Bool"},
		{value.Num(3.14), "Num"},
		{value.Str("x"), "Str"},
		{value.MustRecord(), "{}"},
		{value.Array{}, "[]"},
	}
	for _, c := range cases {
		if got := Infer(c.v); got.String() != c.want {
			t.Errorf("Infer(%s) = %s, want %s", value.JSON(c.v), got, c.want)
		}
	}
}

func TestInferPaperFigure1Style(t *testing.T) {
	// A record in the style of the paper's Figure 1 sample.
	v := value.Obj(
		"name", value.Str("New York"),
		"coordinates", value.Arr(value.Num(40.7), value.Num(-74.0)),
		"tags", value.Arr(value.Str("abc"), value.Str("cde"), value.Obj("E", value.Str("fr"), "F", value.Num(12))),
	)
	got := Infer(v)
	want := types.MustParse(`{coordinates: [Num, Num], name: Str, tags: [Str, Str, {E: Str, F: Num}]}`)
	if !types.Equal(got, want) {
		t.Errorf("Infer = %s, want %s", got, want)
	}
}

func TestInferIsIsomorphic(t *testing.T) {
	// The inferred type of phase 1 mirrors the value's shape exactly:
	// no unions, no options, no repeated types, same node structure.
	v := value.Obj(
		"a", value.Arr(value.Num(1), value.Num(2), value.Str("three")),
		"b", value.Obj("c", value.Null{}),
	)
	tt := Infer(v)
	if tt.Size() != value.Nodes(v) {
		t.Errorf("type size %d differs from value nodes %d", tt.Size(), value.Nodes(v))
	}
	types.Walk(tt, func(x types.Type) bool {
		switch x.(type) {
		case *types.Union, *types.Repeated, types.EmptyType:
			t.Errorf("phase-1 inference produced %T (%s)", x, x)
		case *types.Record:
			for _, f := range x.(*types.Record).Fields() {
				if f.Optional {
					t.Errorf("phase-1 inference produced optional field %q", f.Key)
				}
			}
		}
		return true
	})
}

func TestLemma51Soundness(t *testing.T) {
	// Lemma 5.1: ⊢ V ▷ T implies V ∈ ⟦T⟧, on random values.
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
				return value.Num(float64(next(100)))
			case 3:
				return value.Str(strings.Repeat("x", next(4)))
			case 4:
				var fs []value.Field
				seen := map[string]bool{}
				for i := 0; i < next(4); i++ {
					k := string(rune('a' + next(6)))
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
		return types.Member(v, Infer(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestInferDeterministic(t *testing.T) {
	v := value.Obj("z", value.Num(1), "a", value.Arr(value.Bool(true)))
	t1 := Infer(v)
	t2 := Infer(v)
	if !types.Equal(t1, t2) || t1.String() != t2.String() {
		t.Error("inference is not deterministic")
	}
}

func TestDecoderMatchesInfer(t *testing.T) {
	src := `{"a": [1, "x", {"b": null}], "c": true}
{"a": [], "c": false}
[1, 2, [3]]
"scalar"
{}`
	d := NewDecoder(strings.NewReader(src), jsontext.Options{})
	p := jsontext.NewParser(strings.NewReader(src), jsontext.Options{})
	n := 0
	for {
		st, serr := d.Next()
		v, perr := p.Next()
		if serr == io.EOF && perr == io.EOF {
			break
		}
		if serr != nil || perr != nil {
			t.Fatalf("stream err %v, parse err %v", serr, perr)
		}
		if vt := Infer(v); !types.Equal(st, vt) {
			t.Errorf("value %d: streaming %s != value-based %s", n, st, vt)
		}
		n++
	}
	if n != 5 {
		t.Fatalf("decoded %d values, want 5", n)
	}
}

func TestDecoderErrors(t *testing.T) {
	bad := []string{
		`{"a":}`,
		`{"a" 1}`,
		`{1: 2}`,
		`{"dup":1,"dup":2}`,
		`[1,`,
		`[1 2]`,
		`}`,
	}
	for _, src := range bad {
		d := NewDecoder(strings.NewReader(src), jsontext.Options{})
		if tt, err := d.Next(); err == nil {
			t.Errorf("Decoder accepted %q as %s", src, tt)
		}
	}
}

func TestDecoderMaxDepth(t *testing.T) {
	deep := strings.Repeat(`{"a":`, 50) + "1" + strings.Repeat("}", 50)
	d := NewDecoder(strings.NewReader(deep), jsontext.Options{MaxDepth: 10})
	if _, err := d.Next(); err == nil {
		t.Error("depth 50 accepted with MaxDepth 10")
	}
	d = NewDecoder(strings.NewReader(deep), jsontext.Options{})
	if _, err := d.Next(); err != nil {
		t.Errorf("depth 50 rejected with default MaxDepth: %v", err)
	}
}

func TestInferAll(t *testing.T) {
	ts, err := InferAll([]byte(`{"a":1}` + "\n" + `{"a":"s"}` + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 2 {
		t.Fatalf("got %d types", len(ts))
	}
	if ts[0].String() != "{a: Num}" || ts[1].String() != "{a: Str}" {
		t.Errorf("types = %s, %s", ts[0], ts[1])
	}
	if _, err := InferAll([]byte(`{"a":`)); err == nil {
		t.Error("InferAll accepted malformed input")
	}
}

func TestDecoderOffsetAdvances(t *testing.T) {
	d := NewDecoder(strings.NewReader(`{"a":1} {"b":2}`), jsontext.Options{})
	if _, err := d.Next(); err != nil {
		t.Fatal(err)
	}
	if d.Offset() < 7 {
		t.Errorf("offset = %d after first value", d.Offset())
	}
}

// TestWideObjectLinear: the duplicate-key check costs linear time in an
// object's width, in the decoder and the parser alike. An object of
// 2^18 keys, listed out of order, types and parses in well under a
// second (the bound leaves room for the race detector), where a check
// against every earlier key takes minutes; with
// its last key repeated, both fail with the same message at the same
// offset, the repeated key's.
func TestWideObjectLinear(t *testing.T) {
	const n = 1 << 18
	r := rand.New(rand.NewSource(5))
	var doc []byte
	doc = append(doc, '{')
	for i, k := range r.Perm(n) {
		if i > 0 {
			doc = append(doc, ',')
		}
		doc = fmt.Appendf(doc, `"k%d":%d`, k, i)
	}
	wide := append(doc, '}')
	start := time.Now()
	ts, err := InferAll(wide)
	if err != nil || len(ts) != 1 || ts[0].(*types.Record).Len() != n {
		t.Fatalf("InferAll: %d types, %v", len(ts), err)
	}
	if _, err := jsontext.ParseBytes(wide); err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("typing and parsing a %d-key object took %v", n, d)
	}
	dup := fmt.Appendf(doc, `,"k%d":0}`, n/2)
	_, derr := InferAll(dup)
	_, perr := jsontext.ParseBytes(dup)
	want := fmt.Sprintf("offset %d: duplicate object key %q", len(doc)+1, fmt.Sprintf("k%d", n/2))
	if derr == nil || perr == nil || derr.Error() != perr.Error() || !strings.HasSuffix(derr.Error(), want) {
		t.Fatalf("repeated key: decoder %v, parser %v, want %s", derr, perr, want)
	}
}
