package types

import (
	"encoding/json"
	"fmt"
)

// The codec serializes types to a small JSON document format so that
// inferred schemas can be persisted and exchanged (the public Repository
// stores per-partition schemas this way). This is
// distinct from the JSON Schema export in internal/jsonschema: the codec
// is a loss-free round trip of our own AST.

// wireType is the serialized form of a Type.
type wireType struct {
	K      string      `json:"k"`
	Fields []wireField `json:"fields,omitempty"`
	Elems  []*wireType `json:"elems,omitempty"`
	Elem   *wireType   `json:"elem,omitempty"`
	Alts   []*wireType `json:"alts,omitempty"`
	// Tagged-union fields (K == "variants"): the discriminator key (keyed
	// mode), the wrapper/collapsed mode markers, the cases, and the Other
	// record reusing Elem.
	Key       string     `json:"key,omitempty"`
	Wrapper   bool       `json:"wrapper,omitempty"`
	Collapsed bool       `json:"collapsed,omitempty"`
	Cases     []wireCase `json:"cases,omitempty"`
}

type wireField struct {
	Key  string    `json:"key"`
	Type *wireType `json:"type"`
	Opt  bool      `json:"opt,omitempty"`
}

type wireCase struct {
	Tag  string    `json:"tag"`
	Type *wireType `json:"type"`
}

func toWire(t Type) *wireType {
	switch tt := t.(type) {
	case Basic:
		switch tt {
		case Null:
			return &wireType{K: "null"}
		case Bool:
			return &wireType{K: "bool"}
		case Num:
			return &wireType{K: "num"}
		case Str:
			return &wireType{K: "str"}
		}
		panic(fmt.Sprintf("types: unknown basic type %d", tt))
	case EmptyType:
		return &wireType{K: "empty"}
	case *Record:
		fs := make([]wireField, len(tt.fields))
		for i, f := range tt.fields {
			fs[i] = wireField{Key: f.Key, Type: toWire(f.Type), Opt: f.Optional}
		}
		// Fields is non-nil even when empty so "{}" round-trips.
		if fs == nil {
			fs = []wireField{}
		}
		return &wireType{K: "record", Fields: fs}
	case *Tuple:
		es := make([]*wireType, len(tt.elems))
		for i, e := range tt.elems {
			es[i] = toWire(e)
		}
		return &wireType{K: "tuple", Elems: es}
	case *Map:
		return &wireType{K: "map", Elem: toWire(tt.elem)}
	case *Variants:
		w := &wireType{K: "variants", Key: tt.key, Wrapper: tt.wrapper, Collapsed: tt.collapsed}
		for _, c := range tt.cases {
			w.Cases = append(w.Cases, wireCase{Tag: c.Tag, Type: toWire(c.Type)})
		}
		if tt.other != nil {
			w.Elem = toWire(tt.other)
		}
		return w
	case *Repeated:
		return &wireType{K: "rep", Elem: toWire(tt.elem)}
	case *Union:
		as := make([]*wireType, len(tt.alts))
		for i, a := range tt.alts {
			as[i] = toWire(a)
		}
		return &wireType{K: "union", Alts: as}
	default:
		panic(fmt.Sprintf("types: unknown type %T", t))
	}
}

func fromWire(w *wireType) (Type, error) {
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
			ft, err := fromWire(wf.Type)
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", wf.Key, err)
			}
			fs[i] = Field{Key: wf.Key, Type: ft, Optional: wf.Opt}
		}
		return NewRecord(fs...)
	case "tuple":
		es := make([]Type, len(w.Elems))
		for i, we := range w.Elems {
			e, err := fromWire(we)
			if err != nil {
				return nil, fmt.Errorf("tuple element %d: %w", i, err)
			}
			es[i] = e
		}
		return NewTuple(es...)
	case "rep":
		e, err := fromWire(w.Elem)
		if err != nil {
			return nil, fmt.Errorf("repeated element: %w", err)
		}
		return NewRepeated(e)
	case "map":
		e, err := fromWire(w.Elem)
		if err != nil {
			return nil, fmt.Errorf("map element: %w", err)
		}
		return NewMap(e)
	case "variants":
		var other *Record
		if w.Elem != nil {
			o, err := fromWire(w.Elem)
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
			ct, err := fromWire(wc.Type)
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
			a, err := fromWire(wa)
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

// MarshalJSON encodes the type as a JSON document that DecodeJSON
// round-trips.
func MarshalJSON(t Type) ([]byte, error) {
	if t == nil {
		return nil, fmt.Errorf("types: cannot marshal nil type")
	}
	return json.Marshal(toWire(t))
}

// UnmarshalJSON decodes a type previously encoded with MarshalJSON.
func UnmarshalJSON(data []byte) (Type, error) {
	var w wireType
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("types: decoding type: %w", err)
	}
	return fromWire(&w)
}
