// Package intern canonicalizes types.Type values by hash-consing: every
// structurally distinct type gets exactly one representative node, so
// structural equality collapses to pointer (or ID) comparison and a
// multiset of a chunk's types holds one entry per distinct shape.
//
// No inference path interns. The package is a leaf kept for the
// benchmark's dedup probe: infer.DedupAllWith canonicalizes the plain
// decoder's types into a Table, and fusion.Memo caches top-level
// fusions by their operands' IDs. Nothing else imports it, which
// TestInternIsALeaf at the repository root enforces.
//
// A Table keeps one entry per distinct type. Entries cache the subtree
// hash and size, so interning a node whose children are already
// canonical costs O(children), not O(subtree): the hash of a record is
// mixed from its keys and its children's cached hashes, and equality
// against a candidate only compares keys and child pointers. The
// invariant that makes this sound is that every child of an interned
// node is itself interned (the canonical representative of its
// equivalence class), which Canon maintains by interning bottom-up.
//
// The table is safe for concurrent use: many workers may intern into
// it at once. Lookups take a read lock; a miss re-probes under the
// write lock before inserting, so exactly one representative wins per
// equivalence class and the hit/miss counters stay deterministic on a
// single-worker run (misses == distinct types).
package intern

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// ID identifies one distinct type within a Table. IDs are dense,
// assigned in first-interned order starting at 0, and never reused.
// Two canonical types from the same Table are structurally equal iff
// their IDs are equal.
type ID uint32

// Ref pairs a canonical type with its Table identity and cached size.
type Ref struct {
	// Type is the canonical representative node.
	Type types.Type
	// ID is the type's dense identity within its Table.
	ID ID
	// Size is the cached types.Type.Size of the representative.
	Size int
}

// entry is the table's record of one distinct type.
type entry struct {
	t    types.Type
	id   ID
	hash uint64
	size int
}

// Table hash-conses types. The zero value is not ready; use NewTable.
type Table struct {
	mu sync.RWMutex
	// byHash buckets entries by their structural hash; collisions are
	// resolved with shallow equality.
	byHash map[uint64][]*entry
	// byNode maps each representative node to its entry, making "is
	// this node canonical?" one identity lookup.
	byNode map[types.Type]*entry
	next   ID

	hits   atomic.Int64
	misses atomic.Int64
}

// NewTable returns a table pre-seeded with the leaf types every JSON
// document produces (ε, the four basic types and the empty tuple), so
// the decoder's leaf returns are canonical by construction.
func NewTable() *Table {
	tb := &Table{
		byHash: make(map[uint64][]*entry, 256),
		byNode: make(map[types.Type]*entry, 256),
	}
	for _, t := range []types.Type{types.Empty, types.Null, types.Bool, types.Num, types.Str, types.EmptyTuple} {
		tb.Canon(t)
	}
	// Seeding is setup, not workload; keep the counters at zero.
	tb.hits.Store(0)
	tb.misses.Store(0)
	return tb
}

// Len reports the number of distinct types interned so far.
func (tb *Table) Len() int {
	tb.mu.RLock()
	defer tb.mu.RUnlock()
	return int(tb.next)
}

// Stats reports the table's lookup counters: hits (the node or an equal
// type was already interned) and misses (a new distinct type was
// inserted). On a fault-free single-worker run both are deterministic;
// under concurrency a lost insertion race counts as a hit, so the split
// may vary while hits+misses and Len stay exact.
func (tb *Table) Stats() (hits, misses int64) {
	return tb.hits.Load(), tb.misses.Load()
}

// Ref returns the identity of a canonical node. ok is false when t is
// not a representative of this table (it may still be structurally
// equal to one — use Canon to resolve it).
func (tb *Table) Ref(t types.Type) (Ref, bool) {
	tb.mu.RLock()
	e, ok := tb.byNode[t]
	tb.mu.RUnlock()
	if !ok {
		return Ref{}, false
	}
	return Ref{Type: e.t, ID: e.id, Size: e.size}, true
}

// Canon returns the canonical representative of t, interning every node
// of t bottom-up. If t is already canonical it is returned unchanged
// (one map lookup); otherwise equal subtrees collapse onto their
// representatives and only genuinely new shapes allocate entries.
func (tb *Table) Canon(t types.Type) types.Type {
	tb.mu.RLock()
	_, ok := tb.byNode[t]
	tb.mu.RUnlock()
	if ok {
		tb.hits.Add(1)
		return t
	}
	switch tt := t.(type) {
	case types.Basic, types.EmptyType:
		return tb.internShallow(t)
	case *types.Record:
		out, changed := types.MapChildren(tt.Fields(), func(f types.Field) types.Field {
			f.Type = tb.Canon(f.Type)
			return f
		})
		if !changed {
			return tb.internShallow(t)
		}
		return tb.internShallow(types.MustRecordSorted(out))
	case *types.Map:
		ce := tb.Canon(tt.Elem())
		if ce == tt.Elem() {
			return tb.internShallow(t)
		}
		return tb.internShallow(types.MustMap(ce))
	case *types.Tuple:
		out, changed := types.MapChildren(tt.Elems(), tb.Canon)
		if !changed {
			return tb.internShallow(t)
		}
		return tb.internShallow(types.MustTuple(out...))
	case *types.Variants:
		if tt.Collapsed() {
			co := tb.Canon(tt.Other()).(*types.Record)
			if co == tt.Other() {
				return tb.internShallow(t)
			}
			return tb.internShallow(types.MustCollapsedVariants(co))
		}
		out, changed := types.MapChildren(tt.Cases(), func(c types.Variant) types.Variant {
			c.Type = tb.Canon(c.Type).(*types.Record)
			return c
		})
		other := tt.Other()
		if other != nil {
			if co := tb.Canon(other).(*types.Record); co != other {
				other, changed = co, true
			}
		}
		if !changed {
			return tb.internShallow(t)
		}
		return tb.internShallow(types.MustVariants(tt.Key(), tt.Wrapper(), out, other))
	case *types.Repeated:
		ce := tb.Canon(tt.Elem())
		if ce == tt.Elem() {
			return tb.internShallow(t)
		}
		return tb.internShallow(types.MustRepeated(ce))
	case *types.Union:
		out, changed := types.MapChildren(tt.Alts(), tb.Canon)
		if !changed {
			return tb.internShallow(t)
		}
		// The canonicalized alternatives are structurally unchanged, so
		// MustUnion keeps them in the same order and the result stays a
		// union of the same arity.
		return tb.internShallow(types.MustUnion(out...))
	default:
		panic(fmt.Sprintf("intern: unknown type %T", t))
	}
}

// internShallow interns a node whose children are already canonical in
// this table. On a miss the node itself becomes the representative, so
// callers must pass freshly built (or otherwise owned) nodes.
func (tb *Table) internShallow(t types.Type) types.Type {
	tb.mu.RLock()
	h, size, ok := tb.shallowMetaLocked(t)
	if ok {
		for _, cand := range tb.byHash[h] {
			if shallowEqual(cand.t, t) {
				tb.mu.RUnlock()
				tb.hits.Add(1)
				return cand.t
			}
		}
	}
	tb.mu.RUnlock()
	if !ok {
		panic("intern: internShallow on a node with non-canonical children")
	}
	return tb.insert(t, h, size)
}

// insert adds t as a new representative, re-probing under the write
// lock so a racing equal insert yields one winner. The loser's node is
// discarded and counted as a hit.
func (tb *Table) insert(t types.Type, h uint64, size int) types.Type {
	tb.mu.Lock()
	for _, cand := range tb.byHash[h] {
		if shallowEqual(cand.t, t) {
			tb.mu.Unlock()
			tb.hits.Add(1)
			return cand.t
		}
	}
	e := &entry{t: t, id: tb.next, hash: h, size: size}
	tb.next++
	tb.byHash[h] = append(tb.byHash[h], e)
	tb.byNode[t] = e
	tb.mu.Unlock()
	tb.misses.Add(1)
	return t
}

// The hash mixes per-kind tag bytes, record keys and child hashes with
// FNV-1a style steps. It is internal to the table (child hashes are the
// children's cached subtree hashes, not types.Hash), and collisions are
// harmless: equality always confirms.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

const (
	tagEmpty byte = iota + 1
	tagBasic
	tagRecord
	tagMap
	tagTuple
	tagRepeated
	tagUnion
	tagVariants
)

func mixByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func mixWord(h, w uint64) uint64 { return (h ^ w) * fnvPrime }

func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mixByte(h, s[i])
	}
	// Terminate so "ab"+"c" and "a"+"bc" differ.
	return mixByte(h, 0xff)
}

// childLocked returns the cached entry of a canonical child. mu must be
// held (read or write suffices: entries are never removed or mutated).
func (tb *Table) childLocked(t types.Type) (*entry, bool) {
	e, ok := tb.byNode[t]
	return e, ok
}

// shallowMetaLocked computes the hash and size of t from its children's
// cached entries; ok is false when a child is not canonical.
func (tb *Table) shallowMetaLocked(t types.Type) (h uint64, size int, ok bool) {
	switch tt := t.(type) {
	case types.EmptyType:
		return mixByte(fnvOffset, tagEmpty), 1, true
	case types.Basic:
		return mixByte(mixByte(fnvOffset, tagBasic), byte(tt)), 1, true
	case *types.Record:
		return tb.recordMetaLocked(tt.Fields())
	case *types.Map:
		e, ok := tb.childLocked(tt.Elem())
		if !ok {
			return 0, 0, false
		}
		return mixWord(mixByte(fnvOffset, tagMap), e.hash), 2 + e.size, true
	case *types.Tuple:
		return tb.tupleMetaLocked(tt.Elems())
	case *types.Variants:
		h = mixByte(fnvOffset, tagVariants)
		size = 1
		switch {
		case tt.Collapsed():
			h = mixByte(h, 1)
		case tt.Wrapper():
			h = mixByte(h, 2)
		default:
			h = mixString(mixByte(h, 3), tt.Key())
		}
		for _, c := range tt.Cases() {
			e, ok := tb.childLocked(c.Type)
			if !ok {
				return 0, 0, false
			}
			h = mixString(h, c.Tag)
			h = mixWord(h, e.hash)
			size += 1 + e.size
		}
		if tt.Other() != nil {
			e, ok := tb.childLocked(tt.Other())
			if !ok {
				return 0, 0, false
			}
			h = mixWord(mixByte(h, 4), e.hash)
			size += 1 + e.size
		}
		return h, size, true
	case *types.Repeated:
		e, ok := tb.childLocked(tt.Elem())
		if !ok {
			return 0, 0, false
		}
		return mixWord(mixByte(fnvOffset, tagRepeated), e.hash), 1 + e.size, true
	case *types.Union:
		alts := tt.Alts()
		h = mixByte(fnvOffset, tagUnion)
		size = len(alts) - 1
		for _, a := range alts {
			e, ok := tb.childLocked(a)
			if !ok {
				return 0, 0, false
			}
			h = mixWord(h, e.hash)
			size += e.size
		}
		return h, size, true
	default:
		panic(fmt.Sprintf("intern: unknown type %T", t))
	}
}

func (tb *Table) recordMetaLocked(fields []types.Field) (h uint64, size int, ok bool) {
	h = mixByte(fnvOffset, tagRecord)
	size = 1
	for i := range fields {
		f := &fields[i]
		e, ok := tb.childLocked(f.Type)
		if !ok {
			return 0, 0, false
		}
		h = mixString(h, f.Key)
		if f.Optional {
			h = mixByte(h, 1)
		} else {
			h = mixByte(h, 0)
		}
		h = mixWord(h, e.hash)
		size += 1 + e.size
	}
	return h, size, true
}

func (tb *Table) tupleMetaLocked(elems []types.Type) (h uint64, size int, ok bool) {
	h = mixByte(fnvOffset, tagTuple)
	size = 1
	for _, el := range elems {
		e, ok := tb.childLocked(el)
		if !ok {
			return 0, 0, false
		}
		h = mixWord(h, e.hash)
		size += e.size
	}
	// Mix the arity so a tuple is never confused with a prefix of a
	// longer one.
	return mixWord(h, uint64(len(elems))), size, true
}

// shallowEqual reports structural equality of two nodes whose children
// are canonical, so child comparison is pointer identity. It agrees
// with types.Equal under the table invariant (property-tested).
func shallowEqual(a, b types.Type) bool {
	switch at := a.(type) {
	case types.EmptyType:
		_, ok := b.(types.EmptyType)
		return ok
	case types.Basic:
		bt, ok := b.(types.Basic)
		return ok && at == bt
	case *types.Record:
		bt, ok := b.(*types.Record)
		return ok && recordEqualFields(at, bt.Fields())
	case *types.Map:
		bt, ok := b.(*types.Map)
		return ok && at.Elem() == bt.Elem()
	case *types.Tuple:
		bt, ok := b.(*types.Tuple)
		return ok && tupleEqualElems(at, bt.Elems())
	case *types.Variants:
		bt, ok := b.(*types.Variants)
		if !ok || at.Collapsed() != bt.Collapsed() || at.Wrapper() != bt.Wrapper() ||
			at.Key() != bt.Key() || at.Len() != bt.Len() || at.Other() != bt.Other() {
			return false
		}
		bc := bt.Cases()
		for i, c := range at.Cases() {
			if c.Tag != bc[i].Tag || c.Type != bc[i].Type {
				return false
			}
		}
		return true
	case *types.Repeated:
		bt, ok := b.(*types.Repeated)
		return ok && at.Elem() == bt.Elem()
	case *types.Union:
		bt, ok := b.(*types.Union)
		if !ok || at.Len() != bt.Len() {
			return false
		}
		ba := bt.Alts()
		for i, alt := range at.Alts() {
			if alt != ba[i] {
				return false
			}
		}
		return true
	default:
		panic(fmt.Sprintf("intern: unknown type %T", a))
	}
}

func recordEqualFields(r *types.Record, fields []types.Field) bool {
	rf := r.Fields()
	if len(rf) != len(fields) {
		return false
	}
	for i := range rf {
		if rf[i].Key != fields[i].Key || rf[i].Optional != fields[i].Optional || rf[i].Type != fields[i].Type {
			return false
		}
	}
	return true
}

func tupleEqualElems(t *types.Tuple, elems []types.Type) bool {
	te := t.Elems()
	if len(te) != len(elems) {
		return false
	}
	for i := range te {
		if te[i] != elems[i] {
			return false
		}
	}
	return true
}
