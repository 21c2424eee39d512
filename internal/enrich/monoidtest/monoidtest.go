// Package monoidtest is the shared conformance harness for every
// commutative monoid in the repository: the enrichment monoids and the
// Lattice (internal/enrich), the pipeline accumulators
// (internal/pipeline), obs metric snapshots (internal/obs), the intern
// multiset (internal/intern) and the type-size tallies (internal/stats)
// all run the same property suite —
// identity, commutativity, associativity, random merge trees versus
// the sequential fold, non-mutation of the second operand, and (when
// the subject serializes) byte-stable serialization round-trips.
//
// A Subject describes one monoid through closures over an opaque
// element type, so the harness needs no generics and no knowledge of
// the concrete state. Because Merge is allowed to mutate its first
// argument (the in-place style the pipeline uses), the harness never
// reuses an element across calls: elements are regenerated
// deterministically from their seed instead of cloned.
//
// The iteration count is tunable for CI soak runs: -monoid.iters on
// any test binary that imports this package, or the MONOID_ITERS
// environment variable (flag wins). Every law runs at least 50
// iterations regardless.
package monoidtest

import (
	"flag"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// Subject describes one monoid under test.
type Subject struct {
	// Name labels the subtests.
	Name string
	// Empty returns the identity element.
	Empty func() any
	// Rand returns a pseudo-random element drawn from r. It must be a
	// pure function of the reads from r, so the harness can regenerate
	// an equal element from the same seed.
	Rand func(r *rand.Rand) any
	// Merge combines two elements and returns the result. It may
	// mutate and return a (in-place merge), but must never mutate b.
	Merge func(a, b any) any
	// Fingerprint renders an element's abstract state as a string:
	// two elements are equal iff their fingerprints are.
	Fingerprint func(x any) string
	// Marshal and Unmarshal, when both set, enable the serialization
	// round-trip laws.
	Marshal   func(x any) ([]byte, error)
	Unmarshal func(data []byte) (any, error)
}

var itersFlag = flag.Int("monoid.iters", 0,
	"iterations per monoid law (0 = MONOID_ITERS env or the built-in default)")

// Iters resolves the per-law iteration count: the -monoid.iters flag,
// else the MONOID_ITERS environment variable, else def; never below
// 50, the conformance floor.
func Iters(def int) int {
	n := def
	if v := os.Getenv("MONOID_ITERS"); v != "" {
		if env, err := strconv.Atoi(v); err == nil && env > 0 {
			n = env
		}
	}
	if *itersFlag > 0 {
		n = *itersFlag
	}
	if n < 50 {
		n = 50
	}
	return n
}

// Run property-checks the monoid laws on s.
func Run(t *testing.T, s Subject) {
	t.Helper()
	iters := Iters(60)
	t.Run(s.Name, func(t *testing.T) {
		t.Run("Identity", func(t *testing.T) { identity(t, s, iters) })
		t.Run("Commutativity", func(t *testing.T) { commutativity(t, s, iters) })
		t.Run("Associativity", func(t *testing.T) { associativity(t, s, iters) })
		t.Run("MergeTrees", func(t *testing.T) { mergeTrees(t, s, iters) })
		t.Run("NoMutateSecond", func(t *testing.T) { noMutateSecond(t, s, iters) })
		if s.Marshal != nil && s.Unmarshal != nil {
			t.Run("RoundTrip", func(t *testing.T) { roundTrip(t, s, iters) })
		}
	})
}

// gen deterministically regenerates the element of a seed: the
// harness's substitute for cloning, safe against in-place merges.
func (s Subject) gen(seed int64) any {
	return s.Rand(rand.New(rand.NewSource(seed)))
}

func identity(t *testing.T, s Subject, iters int) {
	for i := 0; i < iters; i++ {
		seed := int64(1000 + i)
		want := s.Fingerprint(s.gen(seed))
		if got := s.Fingerprint(s.Merge(s.Empty(), s.gen(seed))); got != want {
			t.Fatalf("seed %d: Merge(e, x) != x\n got %s\nwant %s", seed, got, want)
		}
		if got := s.Fingerprint(s.Merge(s.gen(seed), s.Empty())); got != want {
			t.Fatalf("seed %d: Merge(x, e) != x\n got %s\nwant %s", seed, got, want)
		}
	}
	// Two empties merge to an empty.
	want := s.Fingerprint(s.Empty())
	if got := s.Fingerprint(s.Merge(s.Empty(), s.Empty())); got != want {
		t.Fatalf("Merge(e, e) != e\n got %s\nwant %s", got, want)
	}
}

func commutativity(t *testing.T, s Subject, iters int) {
	for i := 0; i < iters; i++ {
		a, b := int64(2000+2*i), int64(2001+2*i)
		ab := s.Fingerprint(s.Merge(s.gen(a), s.gen(b)))
		ba := s.Fingerprint(s.Merge(s.gen(b), s.gen(a)))
		if ab != ba {
			t.Fatalf("seeds %d,%d: Merge(a, b) != Merge(b, a)\n a·b %s\n b·a %s", a, b, ab, ba)
		}
	}
}

func associativity(t *testing.T, s Subject, iters int) {
	for i := 0; i < iters; i++ {
		a, b, c := int64(3000+3*i), int64(3001+3*i), int64(3002+3*i)
		left := s.Fingerprint(s.Merge(s.Merge(s.gen(a), s.gen(b)), s.gen(c)))
		right := s.Fingerprint(s.Merge(s.gen(a), s.Merge(s.gen(b), s.gen(c))))
		if left != right {
			t.Fatalf("seeds %d,%d,%d: (a·b)·c != a·(b·c)\n left %s\nright %s", a, b, c, left, right)
		}
	}
}

// mergeTrees folds n elements through a random binary merge tree and
// checks the result against the sequential left fold — the law the
// engine's arbitrary combine order rests on.
func mergeTrees(t *testing.T, s Subject, iters int) {
	rng := rand.New(rand.NewSource(20170321))
	for trial := 0; trial < iters; trial++ {
		n := 2 + rng.Intn(7)
		base := int64(4000 + 100*trial)

		seq := s.Empty()
		for j := 0; j < n; j++ {
			seq = s.Merge(seq, s.gen(base+int64(j)))
		}
		want := s.Fingerprint(seq)

		// Random tree: repeatedly merge two random groups until one
		// remains (swap-delete keeps the pick uniform).
		groups := make([]any, n)
		for j := 0; j < n; j++ {
			groups[j] = s.gen(base + int64(j))
		}
		for len(groups) > 1 {
			i := rng.Intn(len(groups))
			j := rng.Intn(len(groups) - 1)
			if j >= i {
				j++
			}
			groups[i] = s.Merge(groups[i], groups[j])
			groups[j] = groups[len(groups)-1]
			groups = groups[:len(groups)-1]
		}
		if got := s.Fingerprint(groups[0]); got != want {
			t.Fatalf("trial %d (n=%d): random merge tree != sequential fold\n got %s\nwant %s",
				trial, n, got, want)
		}
	}
}

func noMutateSecond(t *testing.T, s Subject, iters int) {
	for i := 0; i < iters; i++ {
		a, b := int64(5000+2*i), int64(5001+2*i)
		x := s.gen(b)
		before := s.Fingerprint(x)
		s.Merge(s.gen(a), x)
		if after := s.Fingerprint(x); after != before {
			t.Fatalf("seeds %d,%d: Merge mutated its second operand\nbefore %s\n after %s",
				a, b, before, after)
		}
	}
}

func roundTrip(t *testing.T, s Subject, iters int) {
	check := func(label string, x any, fresh func() any) {
		t.Helper()
		want := s.Fingerprint(x)
		data, err := s.Marshal(x)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", label, err)
		}
		y, err := s.Unmarshal(data)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", label, err)
		}
		if got := s.Fingerprint(y); got != want {
			t.Fatalf("%s: round-trip changed the state\n got %s\nwant %s", label, got, want)
		}
		again, err := s.Marshal(y)
		if err != nil {
			t.Fatalf("%s: re-Marshal: %v", label, err)
		}
		if string(again) != string(data) {
			t.Fatalf("%s: serialization is not byte-stable\nfirst  %s\nsecond %s", label, data, again)
		}
		// Merging after a round-trip equals merging the originals.
		if fresh != nil {
			direct := s.Fingerprint(s.Merge(fresh(), x))
			viaWire := s.Fingerprint(s.Merge(fresh(), y))
			if direct != viaWire {
				t.Fatalf("%s: merge after round-trip diverged\n direct %s\nviaWire %s", label, direct, viaWire)
			}
		}
	}
	check("empty", s.Empty(), nil)
	for i := 0; i < iters; i++ {
		seed := int64(6000 + 2*i)
		other := int64(6001 + 2*i)
		check("single", s.gen(seed), func() any { return s.gen(other) })
		merged := s.Merge(s.gen(seed), s.gen(other))
		check("merged", merged, func() any { return s.gen(seed) })
	}
}
