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
}

// TestMemoMatchesDirect is the memo's soundness property: for random
// normal types, the memoized Fuse and Simplify return types structurally
// identical (and identically rendered) to the un-memoized policy, under
// every Options value — including fuse(T, T), which must simplify
// tuples exactly like the direct algorithm does.
func TestMemoMatchesDirect(t *testing.T) {
	for _, o := range memoOptions {
		m := NewMemo(o, intern.NewTable())
		r := &rng{s: 11}
		for i := 0; i < 300; i++ {
			a := randomNormalType(r)
			b := randomNormalType(r)
			for _, pair := range [][2]types.Type{{a, b}, {b, a}, {a, a}} {
				want := o.Fuse(pair[0], pair[1])
				got := m.Fuse(pair[0], pair[1])
				if !types.Equal(want, got) || want.String() != got.String() {
					t.Fatalf("opts %+v: memo fuse %s, direct %s", o, got, want)
				}
			}
			if want, got := o.Simplify(a), m.Simplify(a); !types.Equal(want, got) || want.String() != got.String() {
				t.Fatalf("opts %+v: memo simplify %s, direct %s", o, got, want)
			}
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

// TestMemoCacheStats: on a single-goroutine run the counters are exact —
// the second identical fuse is a hit, and commutativity makes the
// swapped order hit the same slot.
func TestMemoCacheStats(t *testing.T) {
	m := NewMemo(Options{}, intern.NewTable())
	a := infer.Infer(randomValue(&rng{s: 5}, 3))
	b := infer.Infer(randomValue(&rng{s: 9}, 3))
	m.Fuse(a, b)
	_, missesAfterFirst, _, _ := m.CacheStats()
	m.Fuse(a, b)
	m.Fuse(b, a) // commutative: same normalized key
	hits, misses, _, _ := m.CacheStats()
	if misses != missesAfterFirst {
		t.Fatalf("repeat fuses added misses: %d -> %d", missesAfterFirst, misses)
	}
	if hits < 2 {
		t.Fatalf("expected >= 2 top-level hits, got %d", hits)
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
