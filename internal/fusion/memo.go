package fusion

import (
	"sync"
	"sync/atomic"

	"repro/internal/intern"
	"repro/internal/types"
)

// Memo is a fusion policy with memoized Fuse and Simplify: results are
// cached by the interned identity of the operands, so each distinct
// pair of types fuses at most once per run. Operands and results are
// canonicalized in the memo's intern.Table, which is what makes the
// cache key sound — within one table, equal IDs mean structurally equal
// types, and Fuse is a function of the operands' structure.
//
// The fuse cache is keyed by the UNORDERED pair of IDs: Fuse is
// commutative (Theorem 5.4 of the paper), fuse(T1, T2) ≡ fuse(T2, T1),
// so normalizing the key to (min ID, max ID) lets both orders share one
// slot. Equal IDs share the (id, id) slot like any other pair — they are
// NOT short-circuited to the operand, because fusion is idempotent only
// on simplified types (fusing a positional tuple with itself simplifies
// it away), and the memo must be correct for arbitrary operands. The
// kernel's copy-on-write does not change this: it returns an operand
// only after computing a result structurally identical to it, never
// because two IDs are equal.
//
// The memo hook sits on the policy's internal fuse/simplify dispatch,
// so recursive sub-fusions (record fields, array elements, union
// alternatives) are memoized individually, not just top-level calls.
// A Memo is safe for concurrent use; the caches only grow. Results are
// computed outside the cache lock (fusion re-enters the memo for
// children), so two workers can race to compute the same entry — the
// first insert wins and the loser's structurally identical result is
// dropped, which keeps results canonical and byte-identical either way.
type Memo struct {
	pol policy
	tab *intern.Table

	mu        sync.RWMutex
	fuseCache map[fuseKey]types.Type
	simpCache map[intern.ID]types.Type

	fuseHits, fuseMisses atomic.Int64
	simpHits, simpMisses atomic.Int64
}

// fuseKey is the normalized (a <= b) ID pair of a fuse cache entry.
type fuseKey struct{ a, b intern.ID }

// NewMemo returns a memoized fusion policy over the given intern table.
// The table may be shared with the decoding phase (as with
// infer.DedupAllWith), so types interned during decoding are cache keys
// without further canonicalization.
func NewMemo(o Options, tab *intern.Table) *Memo {
	m := &Memo{
		tab:       tab,
		fuseCache: make(map[fuseKey]types.Type, 256),
		simpCache: make(map[intern.ID]types.Type, 256),
	}
	m.pol = policy{o: o, memo: m}
	return m
}

// Table returns the memo's intern table.
func (m *Memo) Table() *intern.Table { return m.tab }

// Fuse merges two types under the memo's policy. The result is the
// canonical representative of exactly what the un-memoized policy
// would return (byte-identical rendering), pinned by the differential
// tests at the repository root.
func (m *Memo) Fuse(t1, t2 types.Type) types.Type { return m.pol.fuse(t1, t2) }

// Simplify rewrites array types into the policy's canonical form, with
// per-distinct-type caching.
func (m *Memo) Simplify(t types.Type) types.Type { return m.pol.simplify(t) }

// Finalize lowers intermediate tagged-union states (see
// Options.Finalize). It runs un-memoized — it is called once per
// fold, on the final accumulated type, and its inputs need not be
// canonical.
func (m *Memo) Finalize(t types.Type) types.Type { return m.pol.o.Finalize(t) }

// CacheStats reports the memo's cache counters. Deterministic on a
// single-worker fault-free run; under concurrency two workers may race
// to compute the same entry and the split between hits and misses can
// vary (the obs WithoutCache stripper exists for exactly this).
func (m *Memo) CacheStats() (fuseHits, fuseMisses, simplifyHits, simplifyMisses int64) {
	return m.fuseHits.Load(), m.fuseMisses.Load(), m.simpHits.Load(), m.simpMisses.Load()
}

// fuse is the memo hook behind policy.fuse.
func (m *Memo) fuse(p policy, t1, t2 types.Type) types.Type {
	r1, ok1 := m.tab.Ref(t1)
	r2, ok2 := m.tab.Ref(t2)
	if !ok1 || !ok2 {
		// Foreign operands: canonicalize once, then fuse their
		// representatives so the result lands in the cache.
		return m.fuse(p, m.tab.Canon(t1), m.tab.Canon(t2))
	}
	// Equal IDs are NOT short-circuited to the operand: fusion is
	// idempotent only on simplified types (fuse of a positional tuple
	// with itself simplifies it away), so fuse(T, T) is computed once via
	// the (id, id) cache slot like any other pair.
	k := fuseKey{r1.ID, r2.ID}
	if k.a > k.b {
		// Commutativity: (a, b) and (b, a) share one slot.
		k.a, k.b = k.b, k.a
	}
	m.mu.RLock()
	res, ok := m.fuseCache[k]
	m.mu.RUnlock()
	if ok {
		m.fuseHits.Add(1)
		return res
	}
	// Compute outside the lock: fuseDirect re-enters this memo for
	// children, so holding the lock here would deadlock.
	//lint:ignore monoidpure re-entering the memo through the policy writes the lock-protected cache; cache entries are canonical and idempotent (same key always stores the same value), so the write cannot alter any fusion result
	res = m.tab.Canon(p.fuseDirect(t1, t2))
	m.mu.Lock()
	if prev, raced := m.fuseCache[k]; raced {
		m.mu.Unlock()
		m.fuseHits.Add(1)
		return prev
	}
	m.fuseCache[k] = res
	m.mu.Unlock()
	m.fuseMisses.Add(1)
	return res
}

// simplify is the memo hook behind policy.simplify.
func (m *Memo) simplify(p policy, t types.Type) types.Type {
	r, ok := m.tab.Ref(t)
	if !ok {
		return m.simplify(p, m.tab.Canon(t))
	}
	m.mu.RLock()
	res, hit := m.simpCache[r.ID]
	m.mu.RUnlock()
	if hit {
		m.simpHits.Add(1)
		return res
	}
	//lint:ignore monoidpure re-entering the memo through the policy writes the lock-protected cache; cache entries are canonical and idempotent, so the write cannot alter any simplification result
	res = m.tab.Canon(p.simplifyDirect(t))
	m.mu.Lock()
	if prev, raced := m.simpCache[r.ID]; raced {
		m.mu.Unlock()
		m.simpHits.Add(1)
		return prev
	}
	m.simpCache[r.ID] = res
	m.mu.Unlock()
	m.simpMisses.Add(1)
	return res
}
