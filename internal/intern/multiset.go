package intern

// Multiset counts occurrences of interned types: interned type → count
// instead of one type per record, so a chunk reduces to the handful of
// shapes it actually contains. infer.DedupAllWith returns one per
// chunk.
//
// Elements are kept in first-seen order and iteration never ranges over
// the index map, so every consumer is deterministic for a fixed input.
type Multiset struct {
	elems []Elem
	index map[ID]int
}

// Elem is one distinct type with its occurrence count.
type Elem struct {
	Ref
	// Count is the number of occurrences (always >= 1).
	Count int64
}

// NewMultiset returns an empty multiset.
func NewMultiset() *Multiset {
	return &Multiset{index: make(map[ID]int)}
}

// Add records n more occurrences of r.
func (m *Multiset) Add(r Ref, n int64) {
	if i, ok := m.index[r.ID]; ok {
		m.elems[i].Count += n
		return
	}
	m.index[r.ID] = len(m.elems)
	m.elems = append(m.elems, Elem{Ref: r, Count: n})
}

// Merge folds other into m: counts of shared types add, types new to m
// append in other's first-seen order. Merging is associative and
// commutative on the counts (the element ORDER depends on merge order,
// which is why consumers must treat the multiset as a set with counts —
// fusion's commutativity makes the fold order invisible). other is not
// modified.
func (m *Multiset) Merge(other *Multiset) {
	if other == nil {
		return
	}
	for i := range other.elems {
		m.Add(other.elems[i].Ref, other.elems[i].Count)
	}
}

// Elems returns the distinct elements in first-seen order. Callers must
// not modify the returned slice.
func (m *Multiset) Elems() []Elem { return m.elems }

// Len reports the number of distinct types.
func (m *Multiset) Len() int { return len(m.elems) }

// Total reports the total occurrence count across all distinct types.
func (m *Multiset) Total() int64 {
	var n int64
	for i := range m.elems {
		n += m.elems[i].Count
	}
	return n
}
