package types

import (
	"fmt"

	"repro/internal/value"
)

// Member implements the semantic interpretation ⟦T⟧ of Section 4 as a
// decision procedure: it reports whether the JSON value v belongs to the
// set of values denoted by the type t.
//
//   - no value belongs to ε;
//   - basic values belong to their basic type;
//   - a record belongs to a record type iff every field of the record is
//     typed by a same-key field of the type and every mandatory field of
//     the type is present in the record;
//   - an array belongs to a tuple type iff they have the same length and
//     elements belong positionally;
//   - an array belongs to [T*] iff every element belongs to T (so the
//     empty array belongs to every [T*], including [ε*]);
//   - a value belongs to a union iff it belongs to some alternative.
func Member(v value.Value, t Type) bool {
	switch tt := t.(type) {
	case EmptyType:
		return false
	case Basic:
		return value.Kind(Kind(tt)) == v.Kind()
	case *Record:
		rv, ok := v.(*value.Record)
		if !ok {
			return false
		}
		// Every value field must be allowed and well-typed; every
		// mandatory type field must be present. Both field lists are
		// sorted by key, so merge them.
		vf := rv.Fields()
		tf := tt.fields
		i, j := 0, 0
		for i < len(vf) && j < len(tf) {
			switch {
			case vf[i].Key == tf[j].Key:
				if !Member(vf[i].Value, tf[j].Type) {
					return false
				}
				i++
				j++
			case vf[i].Key < tf[j].Key:
				return false // value has a key the type does not mention
			default:
				if !tf[j].Optional {
					return false // mandatory field absent
				}
				j++
			}
		}
		if i < len(vf) {
			return false // leftover value keys not mentioned by the type
		}
		for ; j < len(tf); j++ {
			if !tf[j].Optional {
				return false
			}
		}
		return true
	case *Map:
		rv, ok := v.(*value.Record)
		if !ok {
			return false
		}
		for _, f := range rv.Fields() {
			if !Member(f.Value, tt.elem) {
				return false
			}
		}
		return true
	case *Variants:
		rv, ok := v.(*value.Record)
		if !ok {
			return false
		}
		if tt.collapsed {
			return Member(v, tt.other)
		}
		// Route the record by its discriminator: a matching tag admits
		// through that case. Other is a catch-all — values the routing
		// misses (or whose routed case rejects them) still belong when
		// Other admits them. The catch-all semantics is what lets fusion
		// absorb arbitrary plain records into Other soundly, keeping the
		// merge algebra order-independent (docs/UNIONS.md).
		if tt.wrapper {
			if fs := rv.Fields(); len(fs) == 1 {
				if _, isRec := fs[0].Value.(*value.Record); isRec {
					if c, ok := tt.Get(fs[0].Key); ok && Member(v, c.Type) {
						return true
					}
				}
			}
		} else if fv := rv.Get(tt.key); fv != nil {
			if s, isStr := fv.(value.Str); isStr {
				if c, ok := tt.Get(string(s)); ok && Member(v, c.Type) {
					return true
				}
			}
		}
		return tt.other != nil && Member(v, tt.other)
	case *Tuple:
		av, ok := v.(value.Array)
		if !ok || len(av) != len(tt.elems) {
			return false
		}
		for i, e := range av {
			if !Member(e, tt.elems[i]) {
				return false
			}
		}
		return true
	case *Repeated:
		av, ok := v.(value.Array)
		if !ok {
			return false
		}
		for _, e := range av {
			if !Member(e, tt.elem) {
				return false
			}
		}
		return true
	case *Union:
		for _, a := range tt.alts {
			if Member(v, a) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("types: unknown type %T", t))
	}
}
