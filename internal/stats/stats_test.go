package stats

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/enrich/monoidtest"
	"repro/internal/types"
)

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Distinct() != 0 || s.MinSize() != 0 || s.MaxSize() != 0 || s.AvgSize() != 0 {
		t.Errorf("zero Summary not zero: %s", s.String())
	}
}

func TestSummaryAdd(t *testing.T) {
	var s Summary
	s.Add(types.MustParse("{a: Num}"))         // size 3
	s.Add(types.MustParse("{a: Num}"))         // duplicate
	s.Add(types.MustParse("{a: Num, b: Str}")) // size 5
	s.Add(types.Num)                           // size 1
	if s.Count() != 4 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.Distinct() != 3 {
		t.Errorf("Distinct = %d", s.Distinct())
	}
	if s.MinSize() != 1 || s.MaxSize() != 5 {
		t.Errorf("Min/Max = %d/%d", s.MinSize(), s.MaxSize())
	}
	if got := s.AvgSize(); got != (3+3+5+1)/4.0 {
		t.Errorf("AvgSize = %v", got)
	}
}

// TestSummaryTally pins that tallying a type by its size and hash, as
// the engine does for a record it absorbs without typing, records
// exactly what Add records.
func TestSummaryTally(t *testing.T) {
	var added, tallied Summary
	for _, s := range []string{"{a: Num}", "{a: Num}", "[Num, Str]", "Null"} {
		ty := types.MustParse(s)
		added.Add(ty)
		tallied.Tally(ty.Size(), types.Hash(ty))
	}
	if added.String() != tallied.String() || added.DistinctSizeSum() != tallied.DistinctSizeSum() {
		t.Errorf("Tally %s, Add %s", tallied.String(), added.String())
	}
}

func TestSummaryMerge(t *testing.T) {
	var a, b, whole Summary
	ts := []types.Type{
		types.MustParse("{a: Num}"),
		types.MustParse("{b: Str}"),
		types.MustParse("{a: Num}"),
		types.Num,
		types.MustParse("[Num, Str]"),
	}
	for i, tt := range ts {
		whole.Add(tt)
		if i%2 == 0 {
			a.Add(tt)
		} else {
			b.Add(tt)
		}
	}
	a.Merge(&b)
	if a.Count() != whole.Count() || a.Distinct() != whole.Distinct() ||
		a.MinSize() != whole.MinSize() || a.MaxSize() != whole.MaxSize() || a.AvgSize() != whole.AvgSize() {
		t.Errorf("merged %s != whole %s", a.String(), whole.String())
	}
}

func TestSummaryMergeEmpty(t *testing.T) {
	var a Summary
	a.Add(types.Num)
	a.Merge(nil)
	a.Merge(&Summary{})
	if a.Count() != 1 {
		t.Errorf("Count = %d after merging empties", a.Count())
	}
	var b Summary
	b.Merge(&a)
	if b.Count() != 1 || b.MinSize() != 1 {
		t.Errorf("empty.Merge(a) = %s", b.String())
	}
}

func TestDistinctSizeSum(t *testing.T) {
	var s Summary
	s.Add(types.MustParse("{a: Num}"))         // size 3, first seen
	s.Add(types.MustParse("{a: Num}"))         // duplicate: not re-counted
	s.Add(types.MustParse("{a: Num, b: Str}")) // size 5
	if got := s.DistinctSizeSum(); got != 8 {
		t.Errorf("DistinctSizeSum = %d, want 8", got)
	}
	var other Summary
	other.Add(types.MustParse("{a: Num}")) // duplicate across summaries
	other.Add(types.Num)                   // size 1, new
	s.Merge(&other)
	if got := s.DistinctSizeSum(); got != 9 {
		t.Errorf("after merge DistinctSizeSum = %d, want 9", got)
	}
}

// TestSizesAddCounts pins that Add(size, n) is n single additions.
func TestSizesAddCounts(t *testing.T) {
	var bulk, single Sizes
	bulk.Add(4, 3)
	bulk.Add(2, 1)
	bulk.Add(9, 0) // records nothing
	for _, size := range []int{4, 4, 4, 2} {
		single.Add(size, 1)
	}
	if bulk != single {
		t.Errorf("Add(size, n) = %+v, n single adds = %+v", bulk, single)
	}
	if bulk.Count() != 4 || bulk.MinSize() != 2 || bulk.MaxSize() != 4 || bulk.AvgSize() != 3.5 {
		t.Errorf("tally = %+v", bulk)
	}
}

// sampleTypes is the pool the conformance generators draw from: sizes
// 1 to 7, so min and max move, and repeats across elements, so the
// distinct sets overlap.
var sampleTypes = []types.Type{
	types.Num,
	types.Str,
	types.MustParse("{a: Num}"),
	types.MustParse("[Str*]"),
	types.MustParse("{a: Num, b: Str}"),
	types.MustParse("{a: [Num*], b: {c: Bool}}"),
}

// TestSummaryMergeConformance runs the Summary through the shared
// monoid harness: identity, commutativity, associativity, random merge
// trees against the sequential fold, and no mutation of the operand.
func TestSummaryMergeConformance(t *testing.T) {
	monoidtest.Run(t, monoidtest.Subject{
		Name:  "stats.Summary",
		Empty: func() any { return &Summary{} },
		Rand: func(r *rand.Rand) any {
			s := &Summary{}
			for i, n := 0, r.Intn(8); i < n; i++ {
				s.Add(sampleTypes[r.Intn(len(sampleTypes))])
			}
			return s
		},
		Merge: func(a, b any) any {
			a.(*Summary).Merge(b.(*Summary))
			return a
		},
		Fingerprint: func(x any) string {
			s := x.(*Summary)
			hs := make([]uint64, 0, len(s.distinct))
			for h := range s.distinct {
				hs = append(hs, h)
			}
			sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
			var sb strings.Builder
			fmt.Fprintf(&sb, "%+v", s.Sizes)
			for _, h := range hs {
				fmt.Fprintf(&sb, " %x:%d", h, s.distinct[h])
			}
			return sb.String()
		},
	})
}

// TestSizesMergeConformance runs the size tally through the shared
// monoid harness on its own, including multi-count adds.
func TestSizesMergeConformance(t *testing.T) {
	monoidtest.Run(t, monoidtest.Subject{
		Name:  "stats.Sizes",
		Empty: func() any { return &Sizes{} },
		Rand: func(r *rand.Rand) any {
			s := &Sizes{}
			for i, n := 0, r.Intn(6); i < n; i++ {
				s.Add(1+r.Intn(50), int64(r.Intn(4)))
			}
			return s
		},
		Merge: func(a, b any) any {
			a.(*Sizes).Merge(*b.(*Sizes))
			return a
		},
		Fingerprint: func(x any) string { return fmt.Sprintf("%+v", *x.(*Sizes)) },
	})
}
