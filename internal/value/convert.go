package value

import (
	"fmt"
	"math"
	"sort"
)

// FromGo converts a Go value of the shapes produced by encoding/json
// (nil, bool, float64, string, map[string]any, []any — plus the other
// numeric Go types and json.Number-like fmt.Stringer numbers for
// convenience) into a Value. It returns an error for unsupported Go types
// and for non-finite floats, which JSON cannot represent.
func FromGo(v any) (Value, error) {
	switch vv := v.(type) {
	case nil:
		return Null{}, nil
	case bool:
		return Bool(vv), nil
	case string:
		return Str(vv), nil
	case float64:
		if math.IsNaN(vv) || math.IsInf(vv, 0) {
			return nil, fmt.Errorf("value: non-finite number %v is not valid JSON", vv)
		}
		return Num(vv), nil
	case float32:
		return FromGo(float64(vv))
	case int:
		return Num(vv), nil
	case int8:
		return Num(vv), nil
	case int16:
		return Num(vv), nil
	case int32:
		return Num(vv), nil
	case int64:
		return Num(vv), nil
	case uint:
		return Num(vv), nil
	case uint8:
		return Num(vv), nil
	case uint16:
		return Num(vv), nil
	case uint32:
		return Num(vv), nil
	case uint64:
		return Num(vv), nil
	case map[string]any:
		// Convert in sorted key order: NewRecord canonicalizes field
		// order anyway, but without the sort the error path would
		// report a map-iteration-random field when several are invalid.
		keys := make([]string, 0, len(vv))
		for k := range vv {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fields := make([]Field, 0, len(keys))
		for _, k := range keys {
			cv, err := FromGo(vv[k])
			if err != nil {
				return nil, fmt.Errorf("field %q: %w", k, err)
			}
			fields = append(fields, Field{Key: k, Value: cv})
		}
		return NewRecord(fields...)
	case []any:
		elems := make(Array, len(vv))
		for i, ev := range vv {
			cv, err := FromGo(ev)
			if err != nil {
				return nil, fmt.Errorf("index %d: %w", i, err)
			}
			elems[i] = cv
		}
		return elems, nil
	case Value:
		return vv, nil
	default:
		return nil, fmt.Errorf("value: unsupported Go type %T", v)
	}
}

// ToGo converts a Value into the Go representation used by encoding/json:
// nil, bool, float64, string, map[string]any, and []any.
func ToGo(v Value) any {
	switch vv := v.(type) {
	case Null:
		return nil
	case Bool:
		return bool(vv)
	case Num:
		return float64(vv)
	case Str:
		return string(vv)
	case *Record:
		m := make(map[string]any, vv.Len())
		for _, f := range vv.Fields() {
			m[f.Key] = ToGo(f.Value)
		}
		return m
	case Array:
		s := make([]any, len(vv))
		for i, e := range vv {
			s[i] = ToGo(e)
		}
		return s
	default:
		panic(fmt.Sprintf("value: unknown value %T", v))
	}
}

// Obj is a convenience constructor for record literals in tests and
// examples: Obj("a", Num(1), "b", Str("x")). It panics if the number of
// arguments is odd, a key is not a string, or keys collide.
func Obj(pairs ...any) *Record {
	if len(pairs)%2 != 0 {
		panic("value.Obj: odd number of arguments")
	}
	fields := make([]Field, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		k, ok := pairs[i].(string)
		if !ok {
			panic(fmt.Sprintf("value.Obj: key %v is not a string", pairs[i]))
		}
		v, ok := pairs[i+1].(Value)
		if !ok {
			panic(fmt.Sprintf("value.Obj: value for key %q is not a Value (%T)", k, pairs[i+1]))
		}
		fields = append(fields, Field{Key: k, Value: v})
	}
	return MustRecord(fields...)
}

// Arr is a convenience constructor for array literals.
func Arr(elems ...Value) Array { return Array(elems) }
