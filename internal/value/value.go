// Package value implements the JSON data model of Figure 2 of the paper
// "Schema Inference for Massive JSON Datasets" (EDBT 2017).
//
// A Value is either a basic value (null, boolean, number, string), a
// record (a set of key/value pairs with unique keys), or an array (an
// ordered list of values). Records are set-like: two records that differ
// only in field order are equal. Arrays are order-sensitive.
package value

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind classifies a Value. The numeric codes mirror the kind() table of
// the paper (null=0, bool=1, num=2, str=3, record=4, array=5) so that the
// type system and the data model agree on kinds.
type Kind int

// Kinds of JSON values, in the paper's order.
const (
	KindNull Kind = iota
	KindBool
	KindNum
	KindStr
	KindRecord
	KindArray
)

// String returns the conventional lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindNum:
		return "num"
	case KindStr:
		return "str"
	case KindRecord:
		return "record"
	case KindArray:
		return "array"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a JSON value: one of Null, Bool, Num, Str, *Record, or Array.
type Value interface {
	// Kind reports which of the six syntactic categories the value
	// belongs to.
	Kind() Kind
	// appendJSON appends the canonical JSON rendering of the value.
	appendJSON(dst []byte) []byte
}

// Null is the JSON null value.
type Null struct{}

// Bool is a JSON boolean.
type Bool bool

// Num is a JSON number. The data model does not distinguish integers from
// floating-point values, matching the paper's single Num basic type.
type Num float64

// Str is a JSON string.
type Str string

// Field is a single key/value association inside a record.
type Field struct {
	Key   string
	Value Value
}

// Record is a set of fields with unique keys. Construct records with
// NewRecord (which rejects duplicate keys, as required by the
// well-formedness condition of Section 4) or MustRecord in tests.
// Fields are kept sorted by key so that records behave as sets.
type Record struct {
	fields []Field
}

// Array is an ordered list of values.
type Array []Value

// Kind implementations.

// Kind reports KindNull.
func (Null) Kind() Kind { return KindNull }

// Kind reports KindBool.
func (Bool) Kind() Kind { return KindBool }

// Kind reports KindNum.
func (Num) Kind() Kind { return KindNum }

// Kind reports KindStr.
func (Str) Kind() Kind { return KindStr }

// Kind reports KindRecord.
func (*Record) Kind() Kind { return KindRecord }

// Kind reports KindArray.
func (Array) Kind() Kind { return KindArray }

// NewRecord builds a record from the given fields. It returns an error if
// two fields share a key (ill-formed JSON per Section 4) or if any field
// value is nil. The input slice is not retained.
func NewRecord(fields ...Field) (*Record, error) {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	// Parsed objects usually arrive with sorted keys; only the others
	// pay for the sort.
	if !slices.IsSortedFunc(fs, compareFieldKeys) {
		slices.SortStableFunc(fs, compareFieldKeys)
	}
	for i, f := range fs {
		if f.Value == nil {
			return nil, fmt.Errorf("value: record field %q has nil value", f.Key)
		}
		if i > 0 && fs[i-1].Key == f.Key {
			return nil, fmt.Errorf("value: duplicate record key %q", f.Key)
		}
	}
	return &Record{fields: fs}, nil
}

func compareFieldKeys(a, b Field) int { return strings.Compare(a.Key, b.Key) }

// MustRecord is like NewRecord but panics on error. It is intended for
// tests and for literals whose well-formedness is evident.
func MustRecord(fields ...Field) *Record {
	r, err := NewRecord(fields...)
	if err != nil {
		panic(err)
	}
	return r
}

// Len reports the number of fields in the record.
func (r *Record) Len() int { return len(r.fields) }

// Fields returns the record's fields sorted by key. The returned slice
// must not be modified.
func (r *Record) Fields() []Field { return r.fields }

// Keys returns the set of top-level keys of the record, sorted.
func (r *Record) Keys() []string {
	ks := make([]string, len(r.fields))
	for i, f := range r.fields {
		ks[i] = f.Key
	}
	return ks
}

// Get returns the value associated with key, or nil if the key is absent.
func (r *Record) Get(key string) Value {
	i := sort.Search(len(r.fields), func(i int) bool { return r.fields[i].Key >= key })
	if i < len(r.fields) && r.fields[i].Key == key {
		return r.fields[i].Value
	}
	return nil
}

// Has reports whether the record contains the key.
func (r *Record) Has(key string) bool { return r.Get(key) != nil }

// Equal reports structural equality of two values. Records compare as
// sets of fields; arrays compare element-wise in order.
func Equal(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.Kind() != b.Kind() {
		return false
	}
	switch av := a.(type) {
	case Null:
		return true
	case Bool:
		return av == b.(Bool)
	case Num:
		return av == b.(Num)
	case Str:
		return av == b.(Str)
	case *Record:
		bv := b.(*Record)
		if len(av.fields) != len(bv.fields) {
			return false
		}
		for i := range av.fields {
			if av.fields[i].Key != bv.fields[i].Key || !Equal(av.fields[i].Value, bv.fields[i].Value) {
				return false
			}
		}
		return true
	case Array:
		bv := b.(Array)
		if len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !Equal(av[i], bv[i]) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Nodes returns the number of nodes in the value's abstract syntax tree:
// one per basic value, one per record plus one per field, one per array.
func Nodes(v Value) int {
	switch vv := v.(type) {
	case *Record:
		n := 1
		for _, f := range vv.fields {
			n += 1 + Nodes(f.Value)
		}
		return n
	case Array:
		n := 1
		for _, e := range vv {
			n += Nodes(e)
		}
		return n
	default:
		return 1
	}
}

// appendJSON implementations render canonical JSON: record fields in key
// order, numbers in their shortest form, strings escaped per RFC 8259.

func (Null) appendJSON(dst []byte) []byte { return append(dst, "null"...) }

func (b Bool) appendJSON(dst []byte) []byte {
	if b {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

func (n Num) appendJSON(dst []byte) []byte {
	f := float64(n)
	if f == float64(int64(f)) && f >= -1e15 && f <= 1e15 {
		return strconv.AppendInt(dst, int64(f), 10)
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

func (s Str) appendJSON(dst []byte) []byte { return AppendQuoted(dst, string(s)) }

func (r *Record) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	for i, f := range r.fields {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendQuoted(dst, f.Key)
		dst = append(dst, ':')
		dst = f.Value.appendJSON(dst)
	}
	return append(dst, '}')
}

func (a Array) appendJSON(dst []byte) []byte {
	dst = append(dst, '[')
	for i, e := range a {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = e.appendJSON(dst)
	}
	return append(dst, ']')
}

// AppendJSON appends the canonical JSON rendering of v to dst and returns
// the extended slice. Record fields are emitted in key order, so equal
// values always render to equal bytes.
func AppendJSON(dst []byte, v Value) []byte { return v.appendJSON(dst) }

// JSON returns the canonical JSON rendering of v as a string.
func JSON(v Value) string { return string(AppendJSON(nil, v)) }

const hexDigits = "0123456789abcdef"

// AppendQuoted appends s as a quoted JSON string, escaping control
// characters, quotes, and backslashes.
func AppendQuoted(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for _, r := range s {
		switch r {
		case '"':
			dst = append(dst, '\\', '"')
		case '\\':
			dst = append(dst, '\\', '\\')
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default:
			if r < 0x20 {
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[r>>4], hexDigits[r&0xf])
			} else {
				dst = append(dst, string(r)...)
			}
		}
	}
	return append(dst, '"')
}
