package fusion

import (
	"sync"
	"sync/atomic"

	"repro/internal/intern"
	"repro/internal/types"
)

// Memo caches the top-level Fuse and Simplify calls made on it under
// one policy. No inference path uses it: it is a leaf kept for the
// benchmark's dedup probe, which folds a multiset of distinct record
// types through it. The kernel never calls back into the memo, so only
// the calls made on a Memo are cached, not their recursive
// sub-fusions.
//
// Both operands are canonicalized in the memo's intern.Table, which is
// what makes the cache key sound: within one table, equal IDs mean
// structurally equal types, and Fuse is a function of the operands'
// structure. The fuse cache is keyed by the UNORDERED pair of IDs:
// Fuse is commutative (Theorem 5.4 of the paper), so (min ID, max ID)
// lets both orders share one slot. Equal IDs are not short-circuited
// to the operand, because fusion is idempotent only on simplified
// types (fusing a positional tuple with itself simplifies it away).
// Results are stored, and returned, as their canonical representative.
//
// A Memo is safe for concurrent use; the caches only grow. Two workers
// can race to compute the same entry: the first insert wins and the
// loser's structurally identical result is dropped, which keeps
// results canonical either way.
type Memo struct {
	o   Options
	tab *intern.Table

	mu        sync.RWMutex
	fuseCache map[fuseKey]types.Type
	simpCache map[intern.ID]types.Type

	fuseHits, fuseMisses atomic.Int64
	simpHits, simpMisses atomic.Int64
}

// fuseKey is the normalized (a <= b) ID pair of a fuse cache entry.
type fuseKey struct{ a, b intern.ID }

// NewMemo returns a memo of the policy o over the given intern table.
// The table may be shared with infer.DedupAllWith, so its multiset's
// types are already canonical.
func NewMemo(o Options, tab *intern.Table) *Memo {
	return &Memo{
		o:         o,
		tab:       tab,
		fuseCache: make(map[fuseKey]types.Type, 256),
		simpCache: make(map[intern.ID]types.Type, 256),
	}
}

// Fuse returns the canonical representative of o.Fuse(t1, t2),
// computing it at most once per unordered pair of distinct types.
func (m *Memo) Fuse(t1, t2 types.Type) types.Type {
	c1, id1 := m.canon(t1)
	c2, id2 := m.canon(t2)
	k := fuseKey{min(id1, id2), max(id1, id2)}
	m.mu.RLock()
	res, ok := m.fuseCache[k]
	m.mu.RUnlock()
	if ok {
		m.fuseHits.Add(1)
		return res
	}
	res = m.tab.Canon(m.o.Fuse(c1, c2))
	m.mu.Lock()
	if prev, raced := m.fuseCache[k]; raced {
		res = prev
	} else {
		m.fuseCache[k] = res
	}
	m.mu.Unlock()
	m.fuseMisses.Add(1)
	return res
}

// Simplify returns the canonical representative of o.Simplify(t),
// computing it at most once per distinct type.
func (m *Memo) Simplify(t types.Type) types.Type {
	c, id := m.canon(t)
	m.mu.RLock()
	res, ok := m.simpCache[id]
	m.mu.RUnlock()
	if ok {
		m.simpHits.Add(1)
		return res
	}
	res = m.tab.Canon(m.o.Simplify(c))
	m.mu.Lock()
	if prev, raced := m.simpCache[id]; raced {
		res = prev
	} else {
		m.simpCache[id] = res
	}
	m.mu.Unlock()
	m.simpMisses.Add(1)
	return res
}

// canon returns t's representative in the memo's table and its ID.
func (m *Memo) canon(t types.Type) (types.Type, intern.ID) {
	c := m.tab.Canon(t)
	r, _ := m.tab.Ref(c)
	return c, r.ID
}

// Finalize is the policy's Finalize, uncached: it runs once per fold,
// on the final accumulated type.
func (m *Memo) Finalize(t types.Type) types.Type { return m.o.Finalize(t) }

// CacheStats reports the memo's top-level cache counters. They are
// deterministic on a single goroutine; under concurrency a lost race
// counts as a miss, so the split can vary.
func (m *Memo) CacheStats() (fuseHits, fuseMisses, simplifyHits, simplifyMisses int64) {
	return m.fuseHits.Load(), m.fuseMisses.Load(), m.simpHits.Load(), m.simpMisses.Load()
}
