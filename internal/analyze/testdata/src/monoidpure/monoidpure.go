// Package fixture holds known-bad and known-good snippets for the
// monoidpure analyzer's golden tests. Every type here is
// accumulator-shaped (Merge and Fold in its pointer method set), which
// makes those methods, and Add where declared, monoid roots.
package fixture

import (
	"math/rand"
	"sort"
	"time"
)

// Acc reads the clock inside Merge: two runs over the same partitions
// produce different accumulators.
type Acc struct {
	total int
	seen  map[string]int
	stamp time.Time
}

func (a *Acc) Add(v string) {
	a.total++ // receiver mutation is the point of accumulating: excused
	if a.seen == nil {
		a.seen = make(map[string]int)
	}
	a.seen[v]++
}

func (a *Acc) Merge(other *Acc) {
	a.stamp = time.Now() // want "must be deterministic"
	for k, n := range other.seen {
		a.seen[k] += n // map-to-map merge is order-insensitive: excused
	}
	a.total += other.total
}

func (a *Acc) Fold() []string {
	var keys []string
	for k := range a.seen {
		keys = append(keys, k)
	}
	sort.Strings(keys) // collect-then-sort: excused
	return keys
}

// DeepAcc is nondeterministic two calls down: Add -> weight -> jitter,
// which rolls dice. The finding lands on the Add body's call site with
// the full witness chain.
type DeepAcc struct{ n int }

func (d *DeepAcc) Add(v string) {
	d.n += weight(v) // want "calls weight, which calls jitter"
}

func (d *DeepAcc) Merge(o *DeepAcc) { d.n += o.n }

func (d *DeepAcc) Fold() int { return d.n }

func weight(v string) int { return jitter(len(v)) }

func jitter(n int) int { return n + rand.Intn(2) }

// StealAcc writes into its Merge operand: under tree reduction or
// retry the sibling partition's accumulator is poisoned.
type StealAcc struct{ buf []int }

func (s *StealAcc) Add(v int) { s.buf = append(s.buf, v) }

func (s *StealAcc) Merge(o *StealAcc) {
	if len(o.buf) > 0 {
		o.buf[0] = 0 // want "must not mutate its parameter o"
	}
	s.buf = append(s.buf, o.buf...)
}

func (s *StealAcc) Fold() []int { return s.buf }

// GlobAcc leaks state into a package-level counter.
var totalMerges int

type GlobAcc struct{ n int }

func (g *GlobAcc) Add(v int) { g.n += v }

func (g *GlobAcc) Merge(o *GlobAcc) {
	totalMerges++ // want "must not mutate package-level state"
	g.n += o.n
}

func (g *GlobAcc) Fold() int { return g.n }

// TimedAcc carries a deliberate, documented exception.
type TimedAcc struct {
	n    int
	last time.Time
}

func (t *TimedAcc) Add(v int) { t.n += v }

func (t *TimedAcc) Merge(o *TimedAcc) {
	//lint:ignore monoidpure fixture demonstrates suppression of a diagnostics-only timestamp
	t.last = time.Now()
	t.n += o.n
}

func (t *TimedAcc) Fold() int { return t.n }

// PairAcc has no Add: Merge and Fold alone (the pipeline.Accumulator
// contract) make a type accumulator-shaped, so its operand write is
// still caught.
type PairAcc struct{ parts []int }

func (p *PairAcc) Merge(o *PairAcc) {
	p.parts = append(p.parts, o.parts...)
	o.parts = nil // want "must not mutate its parameter o"
}

func (p *PairAcc) Fold() int { return len(p.parts) }
