// Package types implements the JSON type language of Figure 3 of the
// paper "Schema Inference for Massive JSON Datasets" (EDBT 2017).
//
// The language has basic types (Null, Bool, Num, Str), record types whose
// fields may be optional, array types in two forms — tuple types
// [T1, ..., Tn] produced by the initial inference, and simplified array
// types [T*] produced by fusion — union types T + U, and the empty type ε.
//
// Types are immutable once constructed. All constructors canonicalize:
// record fields are sorted by key, union alternatives are flattened,
// deduplicated and sorted, so structurally equal types are Equal and
// render to identical strings. This canonical form is what makes the
// fusion operator's commutativity observable as plain equality.
package types

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Kind is the paper's kind() classification of non-union types:
// null=0, bool=1, num=2, str=3, record=4, array=5. Tuple array types and
// simplified array types share the array kind, exactly as in the paper
// (kind(at) = kind(sat) = 5), which is what makes fusion merge them.
type Kind int

// Kinds, with the paper's numeric codes.
const (
	KindNull Kind = iota
	KindBool
	KindNum
	KindStr
	KindRecord
	KindArray
)

// String returns the paper's name for the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "Null"
	case KindBool:
		return "Bool"
	case KindNum:
		return "Num"
	case KindStr:
		return "Str"
	case KindRecord:
		return "Record"
	case KindArray:
		return "Array"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Type is a type expression of the schema language. The concrete types
// are Basic, *Record, *Tuple, *Repeated, *Union, and Empty.
type Type interface {
	// Size returns the number of nodes of the type's abstract syntax
	// tree, the succinctness measure used throughout the paper's
	// evaluation (Tables 2-5). The convention is documented on Size.
	Size() int
	// String renders the type in the paper's concrete syntax; see
	// the package documentation of the printer in print.go.
	String() string
	// ordinal is a total-order discriminant used by Compare. It refines
	// Kind by separating tuples from repeated arrays and giving unions
	// and the empty type their own slots.
	ordinal() int
}

// Basic is one of the four basic types Null, Bool, Num, Str.
type Basic Kind

// The four basic types.
const (
	Null = Basic(KindNull)
	Bool = Basic(KindBool)
	Num  = Basic(KindNum)
	Str  = Basic(KindStr)
)

// Empty is the empty type ε: no value belongs to it. It only appears as
// the body of the simplified empty-array type [ε*] and as the fusion
// identity; the algorithms never place it anywhere else.
type EmptyType struct{}

// Empty is the sole value of the empty type ε.
var Empty = EmptyType{}

// Field is a record-type field: a key, the type of its content, and
// whether the field is optional (the paper's (l : T)? notation).
type Field struct {
	Key      string
	Type     Type
	Optional bool
}

// Record is a record type {l1: T1 [?], ..., ln: Tn [?]}. Fields are
// unique by key and kept sorted by key. Construct with NewRecord, or
// with NewRecordSorted from fields already in key order.
type Record struct {
	fields    []Field
	mandatory int32 // 32 bits keep a record in the 32-byte size class
	settled   bool
}

// Tuple is a positional array type [T1, ..., Tn] as produced by the
// initial inference phase (ArrT/EArrT in the paper). The empty tuple is
// the empty-array type EArrT.
type Tuple struct {
	elems []Type
}

// Repeated is a simplified array type [T*]: arrays of any length whose
// elements all belong to T. [ε*] denotes exactly the empty array.
type Repeated struct {
	elem    Type
	settled bool
}

// Union is a union type T1 + ... + Tn with n >= 2. Alternatives are
// non-union, non-empty types kept deduplicated and sorted in canonical
// order. Construct with NewUnion, which flattens and canonicalizes.
type Union struct {
	alts    []Type
	settled bool
}

func (Basic) ordinal() int     { return 1 }
func (EmptyType) ordinal() int { return 0 }
func (*Record) ordinal() int   { return 2 }
func (*Tuple) ordinal() int    { return 5 }
func (*Repeated) ordinal() int { return 6 }
func (*Union) ordinal() int    { return 7 }

// KindOf returns the paper's kind of a non-union, non-empty type and
// true; for Union and Empty it returns false, since the paper's kind()
// is only defined on union addends.
func KindOf(t Type) (Kind, bool) {
	switch t.(type) {
	case Basic:
		return Kind(t.(Basic)), true
	case *Record, *Map, *Variants:
		return KindRecord, true
	case *Tuple, *Repeated:
		return KindArray, true
	default:
		return 0, false
	}
}

// NewRecord builds a record type. It returns an error if two fields share
// a key or any field type is nil. Field order in the input is irrelevant;
// fields are stored sorted by key. The input slice is not retained.
func NewRecord(fields ...Field) (*Record, error) {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	if !slices.IsSortedFunc(fs, compareFieldKeys) {
		slices.SortStableFunc(fs, compareFieldKeys)
	}
	return NewRecordSorted(fs)
}

// NewRecordSorted builds a record type from fields already sorted by
// key, in one pass and with no copy: the record takes ownership of fs,
// so the caller must not write to fs afterwards. It returns an error if
// the keys are not strictly ascending (a duplicate or an out-of-order
// key) or any field type is nil. This is the constructor of merges
// that produce their fields in key order, such as record fusion.
func NewRecordSorted(fs []Field) (*Record, error) {
	mandatory, settled := int32(0), true
	for i, f := range fs {
		if f.Type == nil {
			return nil, fmt.Errorf("types: record field %q has nil type", f.Key)
		}
		if i > 0 && fs[i-1].Key >= f.Key {
			if fs[i-1].Key == f.Key {
				return nil, fmt.Errorf("types: duplicate record type key %q", f.Key)
			}
			return nil, fmt.Errorf("types: record type key %q follows %q out of order", f.Key, fs[i-1].Key)
		}
		if !f.Optional {
			mandatory++
		}
		settled = settled && Settled(f.Type)
	}
	return &Record{fields: fs, mandatory: mandatory, settled: settled}, nil
}

// MustRecord is NewRecord that panics on error; for literals and tests.
func MustRecord(fields ...Field) *Record {
	r, err := NewRecord(fields...)
	if err != nil {
		panic(err)
	}
	return r
}

// MustRecordSorted is NewRecordSorted that panics on error. Like
// NewRecordSorted it takes ownership of fs.
func MustRecordSorted(fs []Field) *Record {
	r, err := NewRecordSorted(fs)
	if err != nil {
		panic(err)
	}
	return r
}

func compareFieldKeys(a, b Field) int { return strings.Compare(a.Key, b.Key) }

// Fields returns the record's fields in key order. Callers must not
// modify the returned slice.
func (r *Record) Fields() []Field { return r.fields }

// Len reports the number of fields.
func (r *Record) Len() int { return len(r.fields) }

// Mandatory reports the number of mandatory fields.
func (r *Record) Mandatory() int { return int(r.mandatory) }

// Get returns the field with the given key and true, or a zero Field and
// false if the key is absent.
func (r *Record) Get(key string) (Field, bool) {
	i := sort.Search(len(r.fields), func(i int) bool { return r.fields[i].Key >= key })
	if i < len(r.fields) && r.fields[i].Key == key {
		return r.fields[i], true
	}
	return Field{}, false
}

// Keys returns the record's keys in order.
func (r *Record) Keys() []string {
	ks := make([]string, len(r.fields))
	for i, f := range r.fields {
		ks[i] = f.Key
	}
	return ks
}

// NewTuple builds a positional array type. A nil element is rejected.
func NewTuple(elems ...Type) (*Tuple, error) {
	es := make([]Type, len(elems))
	copy(es, elems)
	for i, e := range es {
		if e == nil {
			return nil, fmt.Errorf("types: tuple element %d is nil", i)
		}
	}
	return &Tuple{elems: es}, nil
}

// MustTuple is NewTuple that panics on error.
func MustTuple(elems ...Type) *Tuple {
	t, err := NewTuple(elems...)
	if err != nil {
		panic(err)
	}
	return t
}

// EmptyTuple is the empty-array type EArrT, i.e. [].
var EmptyTuple = &Tuple{}

// Elems returns the tuple's element types in order. Callers must not
// modify the returned slice.
func (t *Tuple) Elems() []Type { return t.elems }

// Len reports the number of positional elements.
func (t *Tuple) Len() int { return len(t.elems) }

// NewRepeated builds the simplified array type [elem*].
func NewRepeated(elem Type) (*Repeated, error) {
	if elem == nil {
		return nil, fmt.Errorf("types: repeated element type is nil")
	}
	return &Repeated{elem: elem, settled: Settled(elem)}, nil
}

// MustRepeated is NewRepeated that panics on error.
func MustRepeated(elem Type) *Repeated {
	r, err := NewRepeated(elem)
	if err != nil {
		panic(err)
	}
	return r
}

// Elem returns the element type of the repeated array type.
func (r *Repeated) Elem() Type { return r.elem }

// NewUnion builds the canonical union of the given types: nested unions
// are flattened, ε is dropped (it is the identity of +), duplicates are
// removed, and alternatives are sorted. The result is Empty for zero
// remaining alternatives and the single alternative for one, with no
// allocation; only two or more alternatives yield a *Union. The input
// slice is not retained.
func NewUnion(ts ...Type) (Type, error) {
	// A *Union holds only non-union, non-empty alternatives, so one
	// level of flattening reaches every addend.
	n := 0
	var single Type
	for _, t := range ts {
		switch tt := t.(type) {
		case nil:
			return nil, fmt.Errorf("types: nil union alternative")
		case EmptyType:
		case *Union:
			n += len(tt.alts)
		default:
			n++
			single = t
		}
	}
	switch n {
	case 0:
		return Empty, nil
	case 1:
		return single, nil
	}
	alts := make([]Type, 0, n)
	for _, t := range ts {
		switch tt := t.(type) {
		case EmptyType:
		case *Union:
			alts = append(alts, tt.alts...)
		default:
			alts = append(alts, t)
		}
	}
	// Fusion builds its unions in kind order, which is already the
	// canonical order; only other inputs pay for the sort.
	if !strictlyAscending(alts) {
		slices.SortStableFunc(alts, Compare)
		// Deduplicate structurally equal alternatives: T + T = T.
		alts = slices.CompactFunc(alts, Equal)
	}
	if len(alts) == 1 {
		return alts[0], nil
	}
	return &Union{alts: alts, settled: settledAlts(alts)}, nil
}

// settledAlts reports whether alts, a union's alternatives, are settled
// and of distinct kinds: the union is in normal form at its top.
func settledAlts(alts []Type) bool {
	var seen [6]bool
	for _, a := range alts {
		k, ok := KindOf(a)
		if !ok || seen[k] || !Settled(a) {
			return false
		}
		seen[k] = true
	}
	return true
}

// strictlyAscending reports whether ts is sorted by Compare with no two
// alternatives equal.
func strictlyAscending(ts []Type) bool {
	for i := 1; i < len(ts); i++ {
		if Compare(ts[i-1], ts[i]) >= 0 {
			return false
		}
	}
	return true
}

// MustUnion is NewUnion that panics on error.
func MustUnion(ts ...Type) Type {
	u, err := NewUnion(ts...)
	if err != nil {
		panic(err)
	}
	return u
}

// Alts returns the union's alternatives in canonical order. Callers must
// not modify the returned slice.
func (u *Union) Alts() []Type { return u.alts }

// Len reports the number of alternatives (always >= 2).
func (u *Union) Len() int { return len(u.alts) }

// Settled reports, in O(1), whether t is settled: it holds no tuple and
// no variants, and every union inside it is normal. Fusion is
// idempotent on a settled type, Fuse(t, t) = t, so a fold may return
// it as is (fusion's fast path); the constructors compute the flag.
// A tuple is never settled: fusing [] with itself gives [ε*].
func Settled(t Type) bool {
	switch tt := t.(type) {
	case Basic, EmptyType:
		return true
	case *Record:
		return tt.settled
	case *Map:
		return tt.settled
	case *Repeated:
		return tt.settled
	case *Union:
		return tt.settled
	default:
		return false
	}
}

// MapChildren applies f to each element of a node's child slice (the
// slice Fields, Elems or Alts returns, say), copy-on-write: it returns
// xs itself, and false, when f returns every element unchanged, and
// otherwise a fresh slice and true. A rebuilding pass uses it to return
// a node none of whose children changed as is.
func MapChildren[E comparable](xs []E, f func(E) E) ([]E, bool) {
	var out []E
	for i, x := range xs {
		m := f(x)
		if out == nil {
			if m == x {
				continue
			}
			out = make([]E, len(xs))
			copy(out, xs[:i])
		}
		out[i] = m
	}
	if out == nil {
		return xs, false
	}
	return out, true
}

// Size implementations. The convention, used consistently in Tables 2-5:
// a basic type or ε is one node; a record is one node plus, per field,
// one field node plus the size of the field's type; a tuple is one node
// plus the sizes of its elements; a repeated type [T*] is one node plus
// the size of T; a union of n alternatives contributes n-1 binary '+'
// nodes plus the sizes of the alternatives.

// Size returns 1: a basic type is a single AST node.
func (Basic) Size() int { return 1 }

// Size returns 1: ε is a single AST node.
func (EmptyType) Size() int { return 1 }

// Size counts one node for the record plus one per field plus the fields'
// type sizes.
func (r *Record) Size() int {
	n := 1
	for _, f := range r.fields {
		n += 1 + f.Type.Size()
	}
	return n
}

// Size counts one node for the array plus the element sizes.
func (t *Tuple) Size() int {
	n := 1
	for _, e := range t.elems {
		n += e.Size()
	}
	return n
}

// Size counts one node for the star plus the element type's size.
func (r *Repeated) Size() int { return 1 + r.elem.Size() }

// Size counts n-1 binary '+' nodes plus the alternatives' sizes.
func (u *Union) Size() int {
	n := len(u.alts) - 1
	for _, a := range u.alts {
		n += a.Size()
	}
	return n
}

// Equal reports structural equality of two canonical types.
func Equal(a, b Type) bool { return Compare(a, b) == 0 }

// Compare defines a total order over canonical types: first by ordinal
// (ε < basic < record < map < variants < tuple < repeated < union),
// basics by kind,
// records lexicographically by (key, optionality, type), tuples and
// unions lexicographically by components.
func Compare(a, b Type) int {
	if oa, ob := a.ordinal(), b.ordinal(); oa != ob {
		return oa - ob
	}
	switch at := a.(type) {
	case EmptyType:
		return 0
	case Basic:
		return int(at) - int(b.(Basic))
	case *Record:
		bt := b.(*Record)
		for i := 0; i < len(at.fields) && i < len(bt.fields); i++ {
			fa, fb := at.fields[i], bt.fields[i]
			if c := strings.Compare(fa.Key, fb.Key); c != 0 {
				return c
			}
			if fa.Optional != fb.Optional {
				if fa.Optional {
					return 1
				}
				return -1
			}
			if c := Compare(fa.Type, fb.Type); c != 0 {
				return c
			}
		}
		return len(at.fields) - len(bt.fields)
	case *Map:
		return Compare(at.elem, b.(*Map).elem)
	case *Variants:
		return compareVariants(at, b.(*Variants))
	case *Tuple:
		bt := b.(*Tuple)
		for i := 0; i < len(at.elems) && i < len(bt.elems); i++ {
			if c := Compare(at.elems[i], bt.elems[i]); c != 0 {
				return c
			}
		}
		return len(at.elems) - len(bt.elems)
	case *Repeated:
		return Compare(at.elem, b.(*Repeated).elem)
	case *Union:
		bt := b.(*Union)
		for i := 0; i < len(at.alts) && i < len(bt.alts); i++ {
			if c := Compare(at.alts[i], bt.alts[i]); c != 0 {
				return c
			}
		}
		return len(at.alts) - len(bt.alts)
	default:
		panic(fmt.Sprintf("types: unknown type %T", a))
	}
}

// Addends returns the list of non-union addends of t: the paper's o(T)
// function (Figure 5). A union yields its alternatives, ε yields the
// empty list, and any other type yields itself.
func Addends(t Type) []Type {
	switch tt := t.(type) {
	case EmptyType:
		return nil
	case *Union:
		return tt.alts
	default:
		return []Type{t}
	}
}

// IsNormal reports whether t is a normal type in the paper's sense: in
// every union occurring anywhere inside t, each kind occurs at most once.
// The fusion algorithm both requires and preserves this invariant
// (Theorems 5.2, 5.4, 5.5 are stated for normal types).
func IsNormal(t Type) bool {
	switch tt := t.(type) {
	case Basic, EmptyType:
		return true
	case *Record:
		for _, f := range tt.fields {
			if !IsNormal(f.Type) {
				return false
			}
		}
		return true
	case *Tuple:
		for _, e := range tt.elems {
			if !IsNormal(e) {
				return false
			}
		}
		return true
	case *Map:
		return IsNormal(tt.elem)
	case *Variants:
		for _, c := range tt.cases {
			if !IsNormal(c.Type) {
				return false
			}
		}
		if tt.other != nil {
			return IsNormal(tt.other)
		}
		return true
	case *Repeated:
		return IsNormal(tt.elem)
	case *Union:
		var seen [6]bool
		for _, a := range tt.alts {
			k, ok := KindOf(a)
			if !ok {
				return false // nested union or ε: not even canonical
			}
			if seen[k] {
				return false
			}
			seen[k] = true
			if !IsNormal(a) {
				return false
			}
		}
		return true
	default:
		panic(fmt.Sprintf("types: unknown type %T", t))
	}
}

// Walk calls fn for t and every type nested inside it, in depth-first
// pre-order. If fn returns false the walk does not descend into that
// subtree.
func Walk(t Type, fn func(Type) bool) {
	if !fn(t) {
		return
	}
	switch tt := t.(type) {
	case *Record:
		for _, f := range tt.fields {
			Walk(f.Type, fn)
		}
	case *Tuple:
		for _, e := range tt.elems {
			Walk(e, fn)
		}
	case *Map:
		Walk(tt.elem, fn)
	case *Variants:
		for _, c := range tt.cases {
			Walk(c.Type, fn)
		}
		if tt.other != nil {
			Walk(tt.other, fn)
		}
	case *Repeated:
		Walk(tt.elem, fn)
	case *Union:
		for _, a := range tt.alts {
			Walk(a, fn)
		}
	}
}
