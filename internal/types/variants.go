package types

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Variants is a tagged-union record type: a discriminated set of record
// types kept separate by the value of a discriminator. It is not part
// of the paper's core language (Figure 3); it exists for the
// tagged-union fusion policy (docs/UNIONS.md), which repairs the
// precision loss the paper's record-fusion rule suffers on
// heterogeneous streams — fusing Twitter's tweets and deletes into one
// record makes every field of both optional, while a tagged union keeps
// one precise record per variant.
//
// A Variants value is in one of three states:
//
//   - keyed: records are discriminated by the string value of the field
//     named Key (e.g. {type: "push", ...} vs {type: "fork", ...}). Each
//     case maps one observed tag value to the record type of the
//     records carrying it.
//   - wrapper: records are discriminated by their single field's key
//     (Twitter's {delete: {...}} vs {scrub_geo: {...}}); Key is empty
//     and each case's tag is that field key. The case type is the whole
//     single-field record.
//   - collapsed: the discriminator hypothesis failed during fusion
//     (mode conflict or more tags than the policy's cap). The state is
//     absorbing — any further fusion stays collapsed — and Other holds
//     the plain record fusion of everything seen, exactly what the
//     paper's algorithm would have produced. fusion.Finalize lowers it
//     to that record, so high-cardinality near-misses degrade
//     gracefully to the paper's result.
//
// In the keyed and wrapper states, Other (possibly nil) collects the
// record types of values that carry no recognized discriminator (the
// wide tweet records next to Twitter's wrapper deletes).
//
// Variants shares the record kind with Record and Map, so normal types
// keep at most one of the three per union and fusion merges them:
// a plain record folds into Other, and a map absorbs the whole union
// (key abstraction wins over tagging).
type Variants struct {
	key       string
	wrapper   bool
	collapsed bool
	cases     []Variant
	other     *Record
}

// Variant is one case of a tagged union: the discriminator value and
// the record type of the values carrying it.
type Variant struct {
	Tag  string
	Type *Record
}

// NewVariants builds a keyed (key != "") or wrapper (key == "",
// wrapper true) tagged union. Cases are sorted by tag; duplicate tags,
// nil case types and an empty case list are rejected, as is setting
// both key and wrapper. other may be nil.
func NewVariants(key string, wrapper bool, cases []Variant, other *Record) (*Variants, error) {
	if (key != "") == wrapper {
		return nil, fmt.Errorf("types: variants need exactly one of a discriminator key or wrapper mode")
	}
	if len(cases) == 0 {
		return nil, fmt.Errorf("types: variants need at least one case")
	}
	cs := make([]Variant, len(cases))
	copy(cs, cases)
	if !slices.IsSortedFunc(cs, compareTags) {
		slices.SortStableFunc(cs, compareTags)
	}
	for i, c := range cs {
		if c.Type == nil {
			return nil, fmt.Errorf("types: variant %q has nil type", c.Tag)
		}
		if i > 0 && cs[i-1].Tag == c.Tag {
			return nil, fmt.Errorf("types: duplicate variant tag %q", c.Tag)
		}
	}
	return &Variants{key: key, wrapper: wrapper, cases: cs, other: other}, nil
}

func compareTags(a, b Variant) int { return strings.Compare(a.Tag, b.Tag) }

// MustVariants is NewVariants that panics on error.
func MustVariants(key string, wrapper bool, cases []Variant, other *Record) *Variants {
	v, err := NewVariants(key, wrapper, cases, other)
	if err != nil {
		panic(err)
	}
	return v
}

// NewCollapsedVariants builds the absorbing collapsed state around the
// plain record fusion of everything the union has seen.
func NewCollapsedVariants(other *Record) (*Variants, error) {
	if other == nil {
		return nil, fmt.Errorf("types: collapsed variants need a record")
	}
	return &Variants{collapsed: true, other: other}, nil
}

// MustCollapsedVariants is NewCollapsedVariants that panics on error.
func MustCollapsedVariants(other *Record) *Variants {
	v, err := NewCollapsedVariants(other)
	if err != nil {
		panic(err)
	}
	return v
}

// Key returns the discriminator field key ("" in wrapper and collapsed
// states).
func (v *Variants) Key() string { return v.key }

// Wrapper reports whether the union discriminates by the single field
// key of wrapper records.
func (v *Variants) Wrapper() bool { return v.wrapper }

// Collapsed reports whether the discriminator hypothesis failed and the
// union degraded to the absorbing collapsed state.
func (v *Variants) Collapsed() bool { return v.collapsed }

// Cases returns the variants in tag order (empty when collapsed).
// Callers must not modify the returned slice.
func (v *Variants) Cases() []Variant { return v.cases }

// Len reports the number of cases.
func (v *Variants) Len() int { return len(v.cases) }

// Other returns the record type of values carrying no recognized
// discriminator, or nil. In the collapsed state it holds the plain
// record fusion of everything.
func (v *Variants) Other() *Record { return v.other }

// Get returns the case with the given tag and true, or a zero Variant
// and false.
func (v *Variants) Get(tag string) (Variant, bool) {
	i := sort.Search(len(v.cases), func(i int) bool { return v.cases[i].Tag >= tag })
	if i < len(v.cases) && v.cases[i].Tag == tag {
		return v.cases[i], true
	}
	return Variant{}, false
}

// ordinal places tagged unions between maps and tuples in the total
// order.
func (*Variants) ordinal() int { return 4 }

// Size counts one node for the union, one per case tag plus the case
// type, and one plus the record for Other — the same convention as
// record fields, so the succinctness comparison against the paper's
// fused record is honest.
func (v *Variants) Size() int {
	n := 1
	for _, c := range v.cases {
		n += 1 + c.Type.Size()
	}
	if v.other != nil {
		n += 1 + v.other.Size()
	}
	return n
}

// String renders the tagged union; see print.go for the syntax.
func (v *Variants) String() string {
	var sb strings.Builder
	v.appendTo(&sb)
	return sb.String()
}

// compareVariants is the *Variants arm of Compare.
func compareVariants(a, b *Variants) int {
	if a.collapsed != b.collapsed {
		if a.collapsed {
			return 1
		}
		return -1
	}
	if a.wrapper != b.wrapper {
		if a.wrapper {
			return 1
		}
		return -1
	}
	if c := strings.Compare(a.key, b.key); c != 0 {
		return c
	}
	for i := 0; i < len(a.cases) && i < len(b.cases); i++ {
		if c := strings.Compare(a.cases[i].Tag, b.cases[i].Tag); c != 0 {
			return c
		}
		if c := Compare(a.cases[i].Type, b.cases[i].Type); c != 0 {
			return c
		}
	}
	if c := len(a.cases) - len(b.cases); c != 0 {
		return c
	}
	switch {
	case a.other == nil && b.other == nil:
		return 0
	case a.other == nil:
		return -1
	case b.other == nil:
		return 1
	default:
		return Compare(a.other, b.other)
	}
}
