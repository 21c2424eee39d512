package types

// Map is an abstracted record type {*: T}: records with ARBITRARY keys
// whose values all belong to T. It is not part of the paper's core
// language (Figure 3); it exists for the key-abstraction extension that
// repairs the Wikidata pathology of Section 6.2 — datasets that encode
// identifiers as record keys defeat key-directed fusion, and the fix
// (which the authors themselves later pursued in their parametric
// schema-inference work) is to abstract such records into a map from
// any key to a fused value type.
//
// Map shares the record kind, so in normal types a union holds at most
// one of {record type, map type}, and fusion merges the two forms:
// fusing a map with a record folds the record's field types into the
// map's element type.
type Map struct {
	elem    Type
	settled bool
}

// NewMap builds the abstracted record type {*: elem}.
func NewMap(elem Type) (*Map, error) {
	if elem == nil {
		return nil, errNilMapElem
	}
	return &Map{elem: elem, settled: Settled(elem)}, nil
}

// MustMap is NewMap that panics on error.
func MustMap(elem Type) *Map {
	m, err := NewMap(elem)
	if err != nil {
		panic(err)
	}
	return m
}

var errNilMapElem = errorString("types: map element type is nil")

type errorString string

func (e errorString) Error() string { return string(e) }

// Elem returns the type of the map's values.
func (m *Map) Elem() Type { return m.elem }

// ordinal places maps between records and tuples in the total order.
func (*Map) ordinal() int { return 3 }

// Size counts one node for the record, one for the wildcard field, plus
// the element type — the same convention as a one-field record.
func (m *Map) Size() int { return 2 + m.elem.Size() }

// String renders the abstracted record type.
func (m *Map) String() string { return "{*: " + m.elem.String() + "}" }
