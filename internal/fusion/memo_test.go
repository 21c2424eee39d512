package fusion

import (
	"sync"
	"testing"

	"repro/internal/infer"
	"repro/internal/intern"
	"repro/internal/types"
)

// memoOptions are the policies the pipeline can run under; the memo must
// agree with the direct algorithm under each.
var memoOptions = []Options{
	{},
	{Tuples: true},
	{Tagged: true},
}

// TestMemoMatchesDirect is the memo's soundness property: for random
// normal types, the memoized Fuse and Simplify return types structurally
// identical (and identically rendered) to the un-memoized policy, under
// every Options value — including fuse(T, T), which must simplify
// tuples exactly like the direct algorithm does. Every result is the
// representative of the memo's table.
func TestMemoMatchesDirect(t *testing.T) {
	for _, o := range memoOptions {
		tab := intern.NewTable()
		m := NewMemo(o, tab)
		check := func(what string, got, want types.Type) {
			t.Helper()
			if !types.Equal(want, got) || want.String() != got.String() {
				t.Fatalf("opts %+v: memo %s %s, direct %s", o, what, got, want)
			}
			if _, ok := tab.Ref(got); !ok {
				t.Fatalf("opts %+v: memo %s %s is not a representative of its table", o, what, got)
			}
		}
		r := &rng{s: 11}
		for i := 0; i < 300; i++ {
			a := randomNormalType(r)
			b := randomNormalType(r)
			for _, pair := range [][2]types.Type{{a, b}, {b, a}, {a, a}} {
				check("fuse", m.Fuse(pair[0], pair[1]), o.Fuse(pair[0], pair[1]))
			}
			check("simplify", m.Simplify(a), o.Simplify(a))
		}
	}
}

// TestMemoIdempotentOnSimplified checks the algebraic fact the dedup
// pipeline leans on (absorption): for SIMPLIFIED types, fuse(T, T) = T
// under every policy, so re-fusing an already-seen distinct type is a
// no-op and the streaming path may skip it.
func TestMemoIdempotentOnSimplified(t *testing.T) {
	for _, o := range memoOptions {
		m := NewMemo(o, intern.NewTable())
		r := &rng{s: 23}
		for i := 0; i < 200; i++ {
			s := m.Simplify(randomNormalType(r))
			if got := m.Fuse(s, s); !types.Equal(got, s) {
				t.Fatalf("opts %+v: fuse(T, T) = %s, want T = %s", o, got, s)
			}
			acc := m.Fuse(randomNormalType(r), s)
			if got := m.Fuse(acc, s); !types.Equal(got, acc) {
				t.Fatalf("opts %+v: absorption failed: fuse(fuse(A,s),s) = %s, want %s", o, got, acc)
			}
		}
	}
}

// TestMemoCacheStats: on a single-goroutine run the counters are exact
// and count top-level calls only. The first fuse of a pair is one miss;
// every repeat is a hit, in either order (commutativity shares the
// slot) and for fresh structurally equal operands (they canonicalize
// onto the same IDs).
func TestMemoCacheStats(t *testing.T) {
	m := NewMemo(Options{}, intern.NewTable())
	a := infer.Infer(randomValue(&rng{s: 5}, 3))
	b := infer.Infer(randomValue(&rng{s: 9}, 3))
	m.Fuse(a, b)
	if hits, misses, _, _ := m.CacheStats(); hits != 0 || misses != 1 {
		t.Fatalf("first fuse: %d hits, %d misses, want 0 and 1", hits, misses)
	}
	a2 := infer.Infer(randomValue(&rng{s: 5}, 3))
	b2 := infer.Infer(randomValue(&rng{s: 9}, 3))
	for i, pair := range [][2]types.Type{{a, b}, {b, a}, {a2, b2}, {b2, a}} {
		m.Fuse(pair[0], pair[1])
		if hits, misses, _, _ := m.CacheStats(); hits != int64(i+1) || misses != 1 {
			t.Fatalf("repeat %d: %d hits, %d misses, want %d and 1", i, hits, misses, i+1)
		}
	}

	m.Simplify(a)
	_, _, sh0, sm0 := m.CacheStats()
	m.Simplify(a)
	_, _, sh1, sm1 := m.CacheStats()
	if sm1 != sm0 || sh1 != sh0+1 {
		t.Fatalf("simplify memo not hit: hits %d->%d misses %d->%d", sh0, sh1, sm0, sm1)
	}
}

// TestMemoForeignOperands: operands interned in a DIFFERENT table (or
// never interned) are canonicalized on entry, so mixing tables cannot
// corrupt the cache.
func TestMemoForeignOperands(t *testing.T) {
	m := NewMemo(Options{}, intern.NewTable())
	other := intern.NewTable()
	a := other.Canon(infer.Infer(randomValue(&rng{s: 31}, 3)))
	b := infer.Infer(randomValue(&rng{s: 37}, 3))
	want := Fuse(a, b)
	if got := m.Fuse(a, b); !types.Equal(want, got) {
		t.Fatalf("foreign operands: memo %s, direct %s", got, want)
	}
}

// TestMemoConcurrent races many goroutines through one memo (run under
// -race); all must observe structurally identical results.
func TestMemoConcurrent(t *testing.T) {
	m := NewMemo(Options{}, intern.NewTable())
	base := &rng{s: 77}
	ts := make([]types.Type, 24)
	for i := range ts {
		ts[i] = infer.Infer(randomValue(base, 3))
	}
	want := make([]string, len(ts))
	for i := range ts {
		want[i] = Fuse(ts[i], ts[(i+1)%len(ts)]).String()
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ts {
				if got := m.Fuse(ts[i], ts[(i+1)%len(ts)]).String(); got != want[i] {
					t.Errorf("concurrent fuse %d: got %s want %s", i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}
