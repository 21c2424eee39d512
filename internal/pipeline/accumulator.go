package pipeline

import (
	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/stats"
	"repro/internal/types"
)

// An Accumulator is one partial result of the reduce phase: the monoid
// the engine folds over. The paper's distribution argument (Theorems
// 5.4 and 5.5) is exactly that this fold is a commutative monoid —
// Merge is associative and commutative, the empty accumulator (and nil,
// see Combine) is its identity — so chunking, scheduling and worker
// count are invisible in the Fold.
//
// It has one implementation, chunkAcc, which the one map stage fills
// for every chunk. Its laws are property-tested in accumulator_test.go
// the same way Fuse and obs snapshots are.
type Accumulator interface {
	// Merge absorbs other into the receiver. Associative and
	// commutative; other must come from the same Env (same fusion
	// policy).
	Merge(other Accumulator)
	// Fold finalizes the accumulator into a Result. It does not consume
	// the accumulator, but callers treat it as the last step.
	Fold() Result
}

// Result is a folded Accumulator: the fused type and the type-level
// statistics of Tables 2-5. The byte-level numbers (input bytes,
// retries, quarantined chunks) belong to the feed side and are filled
// in by the caller.
type Result struct {
	// Fused is the final schema (types.Empty when nothing was added).
	Fused types.Type
	// Records is the number of values typed.
	Records int64
	// DistinctTypes is the number of distinct types seen: exact, or
	// zero under Env.SizesOnly, which cannot afford the bookkeeping.
	DistinctTypes int
	// MinTypeSize, MaxTypeSize and AvgTypeSize describe the per-value
	// type sizes.
	MinTypeSize, MaxTypeSize int
	AvgTypeSize              float64
	// Enrichment is the combined enrichment lattice of the run; nil
	// with Env.Enrich unset (or when nothing was fed).
	Enrichment *enrich.Lattice
}

// Combine merges two accumulators, treating nil as the identity — the
// shape the map-reduce engine's zero value takes. Returns the merged
// accumulator (one of its arguments).
func Combine(a, b Accumulator) Accumulator {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	a.Merge(b)
	return a
}

// Fold finalizes an accumulator, treating nil (no input at all) as the
// empty Result.
func Fold(acc Accumulator) Result {
	if acc == nil {
		return Result{Fused: types.Empty}
	}
	return acc.Fold()
}

// chunkAcc is the one accumulator, which the map stage (mapRecords)
// fills for each chunk. It tallies every record, typed or absorbed, by
// the size and structural hash of its raw type, which the decoder's
// walk computes, so the distinct count is exact; under Env.SizesOnly
// by its size alone, with no hash computed and no distinct-type set,
// so memory stays flat and DistinctTypes zero.
type chunkAcc struct {
	// fz is the Env's policy, shared: the Env is read-only to the
	// stages, and a pointer keeps the per-chunk accumulator small.
	fz        *fusion.Options
	sum       stats.Summary
	fused     types.Type
	sizesOnly bool
	// lat is the accumulator's enrichment lattice; nil with enrichment
	// off. Merges ride the accumulator merge, so enrichment inherits the
	// engine's exactly-once combine.
	lat *enrich.Lattice
}

// newChunkAcc returns the empty accumulator of the Env.
func (e *Env) newChunkAcc() *chunkAcc {
	return &chunkAcc{fz: &e.Fusion, fused: types.Empty, sizesOnly: e.SizesOnly}
}

// tally counts one record by the size and hash of its type; in
// sizes-only mode by its size alone.
func (a *chunkAcc) tally(size int, hash uint64) {
	if a.sizesOnly {
		a.sum.Sizes.Add(size, 1)
		return
	}
	a.sum.Tally(size, hash)
}

func (a *chunkAcc) Merge(other Accumulator) {
	b := other.(*chunkAcc)
	a.sum.Merge(&b.sum)
	a.fused = a.fz.Fuse(a.fused, b.fused)
	a.lat = mergeLattices(a.lat, b.lat)
}

func (a *chunkAcc) Fold() Result {
	return Result{
		Fused:         a.fz.Finalize(a.fused),
		Records:       a.sum.Count(),
		DistinctTypes: a.sum.Distinct(),
		MinTypeSize:   a.sum.MinSize(),
		MaxTypeSize:   a.sum.MaxSize(),
		AvgTypeSize:   a.sum.AvgSize(),
		Enrichment:    a.lat,
	}
}

// mergeLattices combines the enrichment lattices of two accumulators
// in place on a, treating nil as the identity. Within one run either
// both sides carry a lattice or neither does; the nil cases keep the
// merge total for hand-built accumulators in tests.
func mergeLattices(a, b *enrich.Lattice) *enrich.Lattice {
	if a == nil {
		return b
	}
	a.Merge(b)
	return a
}
