// Package stats computes the measurements the paper reports in its
// evaluation (Tables 2-5 and 8): the number of distinct inferred types,
// the minimum, maximum and average size of those types, and the size of
// the fused type. Summaries are mergeable, so the map-reduce engine can
// compute them per partition and combine.
//
// Distinct types are counted by a 64-bit structural hash (types.Hash)
// instead of the canonical rendering, so memory stays bounded at the
// paper's 1M scale (Wikidata has 640K distinct types there; storing
// their renderings would cost hundreds of megabytes) and repeated types
// are never rendered at all. A bounded set of exemplar renderings is
// kept for reporting. Hash collisions would undercount distinct types;
// at 64 bits and <2^20 distinct types the collision probability is below
// 2^-24, far below the measurement noise the tables carry anyway.
package stats

import (
	"fmt"
	"sort"

	"repro/internal/types"
)

// MaxExemplars bounds how many distinct type renderings a Summary
// retains for TopTypes reporting.
const MaxExemplars = 10_000

// maxExemplars is the effective cap; tests shrink it to exercise the
// bounded-admission paths without building 10k distinct types.
var maxExemplars = MaxExemplars

// Summary accumulates the per-dataset measurements of Tables 2-5.
// The zero value is ready to use.
type Summary struct {
	count    int64
	sumSize  int64
	minSize  int
	maxSize  int
	distinct map[uint64]*distinctInfo
	// exemplars holds renderings for up to MaxExemplars distinct types.
	exemplars map[uint64]string
}

type distinctInfo struct {
	count int64
	size  int32
}

// Add records one inferred type.
func (s *Summary) Add(t types.Type) {
	size := t.Size()
	if s.count == 0 || size < s.minSize {
		s.minSize = size
	}
	if size > s.maxSize {
		s.maxSize = size
	}
	s.count++
	s.sumSize += int64(size)
	if s.distinct == nil {
		s.distinct = make(map[uint64]*distinctInfo)
		s.exemplars = make(map[uint64]string)
	}
	h := types.Hash(t)
	info := s.distinct[h]
	if info == nil {
		info = &distinctInfo{size: int32(size)}
		s.distinct[h] = info
		if len(s.exemplars) < maxExemplars {
			// Render only first-seen types that we actually retain.
			s.exemplars[h] = t.String()
		}
	}
	info.count++
}

// Merge folds other into s. Merging is commutative and associative, so
// summaries reduce in any order, like the types themselves.
func (s *Summary) Merge(other *Summary) {
	if other == nil || other.count == 0 {
		return
	}
	if s.count == 0 || other.minSize < s.minSize {
		s.minSize = other.minSize
	}
	if other.maxSize > s.maxSize {
		s.maxSize = other.maxSize
	}
	s.count += other.count
	s.sumSize += other.sumSize
	if s.distinct == nil {
		s.distinct = make(map[uint64]*distinctInfo)
		s.exemplars = make(map[uint64]string)
	}
	var newExemplars []uint64
	for h, oInfo := range other.distinct {
		info := s.distinct[h]
		if info == nil {
			s.distinct[h] = &distinctInfo{count: oInfo.count, size: oInfo.size}
			if _, ok := other.exemplars[h]; ok {
				newExemplars = append(newExemplars, h)
			}
			continue
		}
		info.count += oInfo.count
	}
	// Admit newly-seen exemplars in sorted-hash order: when the cap
	// binds, which renderings win the remaining slots must not depend on
	// Go's randomized map iteration order, or two runs over the same
	// partitioning report different TopTypes (caught by the monoidpure
	// analyzer via the pipeline's chunkAcc.Merge).
	sort.Slice(newExemplars, func(i, j int) bool { return newExemplars[i] < newExemplars[j] })
	for _, h := range newExemplars {
		if len(s.exemplars) >= maxExemplars {
			break
		}
		s.exemplars[h] = other.exemplars[h]
	}
}

// Count reports the number of types recorded.
func (s *Summary) Count() int64 { return s.count }

// Distinct reports the number of distinct types recorded, the "# types"
// column of Tables 2-5.
func (s *Summary) Distinct() int { return len(s.distinct) }

// Has reports whether a type with structural hash h (types.Hash) was
// recorded.
func (s *Summary) Has(h uint64) bool {
	_, ok := s.distinct[h]
	return ok
}

// SizeSum reports the total size of all recorded types, repeats
// included: the exact numerator of AvgSize.
func (s *Summary) SizeSum() int64 { return s.sumSize }

// DistinctSizeSum reports the total size of all distinct types (each
// counted once) — the cost of the naive "union of all distinct types"
// schema the succinctness ablation compares against.
func (s *Summary) DistinctSizeSum() int64 {
	var total int64
	for _, info := range s.distinct {
		total += int64(info.size)
	}
	return total
}

// MinSize reports the smallest recorded type size (0 when empty).
func (s *Summary) MinSize() int {
	if s.count == 0 {
		return 0
	}
	return s.minSize
}

// MaxSize reports the largest recorded type size (0 when empty).
func (s *Summary) MaxSize() int { return s.maxSize }

// AvgSize reports the mean recorded type size (0 when empty).
func (s *Summary) AvgSize() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.sumSize) / float64(s.count)
}

// TopTypes returns the n most frequent distinct types with their
// occurrence counts, most frequent first; ties break by rendering so
// the output is deterministic. Only types with retained exemplars are
// reported (the first MaxExemplars distinct types seen).
func (s *Summary) TopTypes(n int) []TypeCount {
	out := make([]TypeCount, 0, len(s.exemplars))
	for h, repr := range s.exemplars {
		out = append(out, TypeCount{Type: repr, Count: s.distinct[h].count})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Type < out[j].Type
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

// TypeCount pairs a type rendering with its number of occurrences.
type TypeCount struct {
	Type  string
	Count int64
}

// String renders the summary as a compact one-line report.
func (s *Summary) String() string {
	return fmt.Sprintf("count=%d distinct=%d min=%d max=%d avg=%.1f",
		s.count, s.Distinct(), s.MinSize(), s.MaxSize(), s.AvgSize())
}
