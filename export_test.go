package jsoninference

import "context"

// InferPlain is Infer with the dedup machinery detached: every chunk
// takes the degraded tactic from its first record (the plain tally and
// the online balanced-tree fold, fusing each record as it is decoded).
// The differential suite checks the adaptive path against it.
func InferPlain(ctx context.Context, src Source, opts Options) (*Schema, Stats, error) {
	if err := opts.validate(); err != nil {
		return nil, Stats{}, err
	}
	env := opts.env()
	env.Dedup = nil
	return runSource(ctx, src, env)
}

// WithLatticeOf returns s's type carrying from's enrichment lattice, so
// a test can pair a hand-built or transformed type with real
// annotations.
func WithLatticeOf(s, from *Schema) *Schema { return newSchema(s.t).withEnrichment(from.enr) }
