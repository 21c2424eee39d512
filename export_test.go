package jsoninference

import "context"

// InferPlain is Infer with the cover detached: every chunk types,
// simplifies and fuses every record, absorbing none — the fold the
// experiments harness measures. The differential suite checks the
// absorbing path against it.
func InferPlain(ctx context.Context, src Source, opts Options) (*Schema, Stats, error) {
	if err := opts.Validate(); err != nil {
		return nil, Stats{}, err
	}
	env := opts.env()
	env.Cover = nil
	return runSource(ctx, src, env)
}

// WithLatticeOf returns s's type carrying from's enrichment lattice, so
// a test can pair a hand-built or transformed type with real
// annotations.
func WithLatticeOf(s, from *Schema) *Schema { return newSchema(s.t).withEnrichment(from.enr) }

// ObserveChunkPool installs f on the pool of every chunked run's
// buffers (see jsontext.ChunkPool.Observe); nil removes it.
func ObserveChunkPool(f func(put bool, b []byte)) { chunkPool.Observe(f) }
