// Package stats computes the measurements the paper reports in its
// evaluation (Tables 2-5 and 8): the number of distinct inferred types
// and the minimum, maximum and average size of those types. Both tallies
// are commutative monoids, so the map-reduce engine can compute them per
// partition and combine.
//
// Distinct types are counted by a 64-bit structural hash (types.Hash)
// instead of the canonical rendering, so memory stays bounded at the
// paper's 1M scale (Wikidata has 640K distinct types there; storing
// their renderings would cost hundreds of megabytes) and no type is ever
// rendered. Hash collisions would undercount distinct types; at 64 bits
// and <2^20 distinct types the collision probability is below 2^-24,
// far below the measurement noise the tables carry anyway.
package stats

import (
	"fmt"

	"repro/internal/types"
)

// Sizes tallies type sizes: how many, their exact sum, the smallest and
// the largest — the min/max/avg columns of Tables 2-5. The zero value is
// the empty tally.
type Sizes struct {
	count    int64
	sum      int64
	min, max int
}

// Add records n types of the given size.
func (s *Sizes) Add(size int, n int64) {
	s.Merge(Sizes{count: n, sum: int64(size) * n, min: size, max: size})
}

// Merge folds o into s. Merging is commutative and associative, and the
// empty tally is its identity.
func (s *Sizes) Merge(o Sizes) {
	if o.count <= 0 {
		return
	}
	if s.count == 0 || o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
	s.count += o.count
	s.sum += o.sum
}

// Count reports the number of types recorded.
func (s *Sizes) Count() int64 { return s.count }

// MinSize reports the smallest recorded type size (0 when empty).
func (s *Sizes) MinSize() int { return s.min }

// MaxSize reports the largest recorded type size (0 when empty).
func (s *Sizes) MaxSize() int { return s.max }

// AvgSize reports the mean recorded type size (0 when empty).
func (s *Sizes) AvgSize() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.count)
}

// Summary accumulates the per-dataset measurements of Tables 2-5: the
// size tally plus the distinct types, each kept as its structural hash
// and size. The zero value is ready to use.
type Summary struct {
	Sizes
	distinct map[uint64]int
}

// Add records one inferred type.
func (s *Summary) Add(t types.Type) { s.Tally(t.Size(), types.Hash(t)) }

// Tally records one inferred type by its size and structural hash
// (types.Hash), for a type known without being built.
func (s *Summary) Tally(size int, hash uint64) {
	s.Sizes.Add(size, 1)
	if s.distinct == nil {
		s.distinct = make(map[uint64]int)
	}
	s.distinct[hash] = size
}

// Merge folds other into s. Merging is commutative and associative, so
// summaries reduce in any order, like the types themselves.
func (s *Summary) Merge(other *Summary) {
	if other == nil || other.count == 0 {
		return
	}
	s.Sizes.Merge(other.Sizes)
	if s.distinct == nil {
		s.distinct = make(map[uint64]int, len(other.distinct))
	}
	for h, size := range other.distinct {
		s.distinct[h] = size
	}
}

// Distinct reports the number of distinct types recorded, the "# types"
// column of Tables 2-5.
func (s *Summary) Distinct() int { return len(s.distinct) }

// DistinctSizeSum reports the total size of all distinct types (each
// counted once) — the cost of the naive "union of all distinct types"
// schema the succinctness ablation compares against.
func (s *Summary) DistinctSizeSum() int64 {
	var total int64
	for _, size := range s.distinct {
		total += int64(size)
	}
	return total
}

// String renders the summary as a compact one-line report.
func (s *Summary) String() string {
	return fmt.Sprintf("count=%d distinct=%d min=%d max=%d avg=%.1f",
		s.count, s.Distinct(), s.MinSize(), s.MaxSize(), s.AvgSize())
}
