package types

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// The oracle is the codec as it was before the hand-written reader and
// writer: reflection-based encoding/json over an intermediate wire
// tree. It is kept, test-only, as the reference the codec must match:
// MarshalJSON(t) equals json.Marshal(oracleToWire(t)) byte for byte
// (TestCodecMatchesOracle), and whatever UnmarshalJSON accepts the
// oracle accepts too and decodes to an equal type (FuzzCodecRoundTrip).

// oracleWire is the serialized form of a Type.
type oracleWire struct {
	K      string        `json:"k"`
	Fields []oracleField `json:"fields,omitempty"`
	Elems  []*oracleWire `json:"elems,omitempty"`
	Elem   *oracleWire   `json:"elem,omitempty"`
	Alts   []*oracleWire `json:"alts,omitempty"`
	// Tagged-union fields (K == "variants"): the discriminator key (keyed
	// mode), the wrapper/collapsed mode markers, the cases, and the Other
	// record reusing Elem.
	Key       string       `json:"key,omitempty"`
	Wrapper   bool         `json:"wrapper,omitempty"`
	Collapsed bool         `json:"collapsed,omitempty"`
	Cases     []oracleCase `json:"cases,omitempty"`
}

type oracleField struct {
	Key  string      `json:"key"`
	Type *oracleWire `json:"type"`
	Opt  bool        `json:"opt,omitempty"`
}

type oracleCase struct {
	Tag  string      `json:"tag"`
	Type *oracleWire `json:"type"`
}

func oracleToWire(t Type) *oracleWire {
	switch tt := t.(type) {
	case Basic:
		switch tt {
		case Null:
			return &oracleWire{K: "null"}
		case Bool:
			return &oracleWire{K: "bool"}
		case Num:
			return &oracleWire{K: "num"}
		case Str:
			return &oracleWire{K: "str"}
		}
		panic(fmt.Sprintf("types: unknown basic type %d", tt))
	case EmptyType:
		return &oracleWire{K: "empty"}
	case *Record:
		fs := make([]oracleField, len(tt.fields))
		for i, f := range tt.fields {
			fs[i] = oracleField{Key: f.Key, Type: oracleToWire(f.Type), Opt: f.Optional}
		}
		// Fields is non-nil even when empty so "{}" round-trips.
		if fs == nil {
			fs = []oracleField{}
		}
		return &oracleWire{K: "record", Fields: fs}
	case *Tuple:
		es := make([]*oracleWire, len(tt.elems))
		for i, e := range tt.elems {
			es[i] = oracleToWire(e)
		}
		return &oracleWire{K: "tuple", Elems: es}
	case *Map:
		return &oracleWire{K: "map", Elem: oracleToWire(tt.elem)}
	case *Variants:
		w := &oracleWire{K: "variants", Key: tt.key, Wrapper: tt.wrapper, Collapsed: tt.collapsed}
		for _, c := range tt.cases {
			w.Cases = append(w.Cases, oracleCase{Tag: c.Tag, Type: oracleToWire(c.Type)})
		}
		if tt.other != nil {
			w.Elem = oracleToWire(tt.other)
		}
		return w
	case *Repeated:
		return &oracleWire{K: "rep", Elem: oracleToWire(tt.elem)}
	case *Union:
		as := make([]*oracleWire, len(tt.alts))
		for i, a := range tt.alts {
			as[i] = oracleToWire(a)
		}
		return &oracleWire{K: "union", Alts: as}
	default:
		panic(fmt.Sprintf("types: unknown type %T", t))
	}
}

func oracleFromWire(w *oracleWire) (Type, error) {
	if w == nil {
		return nil, fmt.Errorf("types: nil wire type")
	}
	switch w.K {
	case "null":
		return Null, nil
	case "bool":
		return Bool, nil
	case "num":
		return Num, nil
	case "str":
		return Str, nil
	case "empty":
		return Empty, nil
	case "record":
		fs := make([]Field, len(w.Fields))
		for i, wf := range w.Fields {
			ft, err := oracleFromWire(wf.Type)
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", wf.Key, err)
			}
			fs[i] = Field{Key: wf.Key, Type: ft, Optional: wf.Opt}
		}
		return NewRecord(fs...)
	case "tuple":
		es := make([]Type, len(w.Elems))
		for i, we := range w.Elems {
			e, err := oracleFromWire(we)
			if err != nil {
				return nil, fmt.Errorf("tuple element %d: %w", i, err)
			}
			es[i] = e
		}
		return NewTuple(es...)
	case "rep":
		e, err := oracleFromWire(w.Elem)
		if err != nil {
			return nil, fmt.Errorf("repeated element: %w", err)
		}
		return NewRepeated(e)
	case "map":
		e, err := oracleFromWire(w.Elem)
		if err != nil {
			return nil, fmt.Errorf("map element: %w", err)
		}
		return NewMap(e)
	case "variants":
		var other *Record
		if w.Elem != nil {
			o, err := oracleFromWire(w.Elem)
			if err != nil {
				return nil, fmt.Errorf("variants other: %w", err)
			}
			r, ok := o.(*Record)
			if !ok {
				return nil, fmt.Errorf("types: variants other is %T, want record", o)
			}
			other = r
		}
		if w.Collapsed {
			return NewCollapsedVariants(other)
		}
		cs := make([]Variant, len(w.Cases))
		for i, wc := range w.Cases {
			ct, err := oracleFromWire(wc.Type)
			if err != nil {
				return nil, fmt.Errorf("variant %q: %w", wc.Tag, err)
			}
			r, ok := ct.(*Record)
			if !ok {
				return nil, fmt.Errorf("types: variant %q is %T, want record", wc.Tag, ct)
			}
			cs[i] = Variant{Tag: wc.Tag, Type: r}
		}
		return NewVariants(w.Key, w.Wrapper, cs, other)
	case "union":
		as := make([]Type, len(w.Alts))
		for i, wa := range w.Alts {
			a, err := oracleFromWire(wa)
			if err != nil {
				return nil, fmt.Errorf("union alternative %d: %w", i, err)
			}
			as[i] = a
		}
		if len(as) < 2 {
			return nil, fmt.Errorf("types: union with %d alternatives", len(as))
		}
		return NewUnion(as...)
	default:
		return nil, fmt.Errorf("types: unknown wire kind %q", w.K)
	}
}

// oracleMarshalJSON is MarshalJSON through the oracle.
func oracleMarshalJSON(t Type) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("types: cannot marshal nil type")
	}
	return json.Marshal(oracleToWire(t))
}

// oracleUnmarshalJSON is UnmarshalJSON through the oracle.
func oracleUnmarshalJSON(data []byte) (Type, error) {
	var w oracleWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("types: decoding type: %w", err)
	}
	return oracleFromWire(&w)
}

// oracleTypes are hand-built types reaching the kinds randomType never
// builds (maps and every variants mode) and keys every escaping rule
// of encoding/json applies to, invalid UTF-8 included.
func oracleTypes(t *testing.T) []Type {
	var out []Type
	for _, src := range []string{
		"ε", "[]", "{}", "[ε*]", "{*: {v: Num, w: [Str*]}}",
		"variants(type){a: {x: Num}, b: {type: Str, y: Str?}, *: {id: Num}}",
		"variants(kind){c: {kind: Str}}",
		"wrapper{delete: {delete: {id: Num}}, *: {id: Num, text: Str}}",
		"wrapper{d: {d: {}}}",
		"collapsed{*: {a: Num, b: Str?}}",
		`{"<a&b>": Num, "q\"uote": Str, "back\\slash": Null, "\u0000\u001f\b\f\n\r\t": Bool}`,
		`{"\u2028\u2029": Num, "ünïcødé 😀": [Num, Str], "\u007f": Null + Str}`,
		`variants(k){"<tag>": {k: Str}, "\u2028": {k: Str, n: Num}}`,
	} {
		tt, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%s): %v", src, err)
		}
		out = append(out, tt)
	}
	return append(out, rec(fld("bad\xff\xfeutf8", Num), fld("\xc3", rec(fld("\xed\xa0\x80", Str)))))
}

// TestCodecMatchesOracle: on random types and oracleTypes, MarshalJSON
// is the oracle's json.Marshal byte for byte, and both readers decode
// those bytes to equal types.
func TestCodecMatchesOracle(t *testing.T) {
	ts := oracleTypes(t)
	for seed := uint64(1); seed <= 500; seed++ {
		ts = append(ts, randomType(&typeRand{s: seed*0x9e3779b97f4a7c15 | 1}, 4))
	}
	for _, tt := range ts {
		requireOracleCodec(t, tt)
	}
}

// requireOracleCodec checks MarshalJSON(tt) and UnmarshalJSON of it
// against the oracle.
func requireOracleCodec(t *testing.T, tt Type) {
	t.Helper()
	got, err := MarshalJSON(tt)
	if err != nil {
		t.Fatalf("MarshalJSON(%s): %v", tt, err)
	}
	want, err := oracleMarshalJSON(tt)
	if err != nil {
		t.Fatalf("oracle MarshalJSON(%s): %v", tt, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("MarshalJSON(%s) differs from the oracle\n got: %s\nwant: %s", tt, got, want)
	}
	back, err := UnmarshalJSON(got)
	if err != nil {
		t.Fatalf("UnmarshalJSON(%s): %v", got, err)
	}
	oback, err := oracleUnmarshalJSON(got)
	if err != nil {
		t.Fatalf("oracle UnmarshalJSON(%s): %v", got, err)
	}
	if !Equal(back, oback) {
		t.Fatalf("UnmarshalJSON(%s) = %s, oracle decodes %s", got, back, oback)
	}
}

// Exported for the generator half of the oracle test in package
// types_test, which infers schemas through packages that import this
// one.
var (
	OracleMarshalJSON   = oracleMarshalJSON
	OracleUnmarshalJSON = oracleUnmarshalJSON
)
