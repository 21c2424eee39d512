// Package fixture holds known-bad and known-good snippets for the
// poolescape analyzer's golden tests.
package fixture

import (
	"context"
	"sync"

	"repro/internal/mapreduce"
)

// bufPool is pool-like through sync.Pool directly.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64); return &b }}

// chunkPool is pool-like by shape: a Get/Put pair over buffers, the
// jsontext.ChunkPool idiom.
type chunkPool struct{ p sync.Pool }

func (c *chunkPool) Get(n int) []byte {
	if v := c.p.Get(); v != nil {
		return (*(v.(*[]byte)))[:0]
	}
	return make([]byte, 0, n)
}

func (c *chunkPool) Put(b []byte) {
	b = b[:0]
	c.p.Put(&b)
}

// sink anchors values so reads are visible uses.
func sink([]byte) {}

// BadUseAfterPut reads the buffer after handing it back: the pool may
// already have given it to a concurrent Get.
func BadUseAfterPut(pool *chunkPool) int {
	buf := pool.Get(64)
	buf = append(buf, 'x')
	pool.Put(buf)
	return len(buf) // want "used after being released"
}

// BadAppendAfterPut grows the released buffer in place; the clear on
// the left-hand side does not excuse the right-hand read.
func BadAppendAfterPut(pool *chunkPool) {
	buf := pool.Get(64)
	pool.Put(buf)
	buf = append(buf, 'y') // want "used after being released"
	sink(buf)
}

// BadDoublePut releases the same buffer twice: the second Put races
// with whoever Got it in between.
func BadDoublePut(pool *chunkPool) {
	buf := pool.Get(64)
	pool.Put(buf)
	pool.Put(buf) // want "used after being released"
}

// BadClosureAfterPut builds a closure over the released buffer: by the
// time it runs, the buffer belongs to someone else.
func BadClosureAfterPut(pool *chunkPool) func() {
	buf := pool.Get(64)
	pool.Put(buf)
	return func() { sink(buf) } // want "used after being released"
}

// BadSyncPoolUse shows the same hazard through a bare sync.Pool.
func BadSyncPoolUse() byte {
	bp := bufPool.Get().(*[]byte)
	b := append(*bp, 'z')
	bufPool.Put(&b)
	return b[0] // want "used after being released"
}

// GoodReassigned hands the variable a fresh buffer after the Put, so
// later uses touch the new buffer, not the released one.
func GoodReassigned(pool *chunkPool) {
	buf := pool.Get(64)
	pool.Put(buf)
	buf = pool.Get(64)
	sink(buf)
}

// GoodDeferredPut releases at function exit: the uses written after the
// defer run before it.
func GoodDeferredPut(pool *chunkPool) {
	buf := pool.Get(64)
	defer pool.Put(buf)
	buf = append(buf, 'a')
	sink(buf)
}

// grow is the ChunkLinesPooled growth step: copy into the bigger
// buffer first, then release the old one and never touch it again.
func grow(pool *chunkPool, b []byte) []byte {
	nb := append(pool.Get(2*cap(b)), b...)
	pool.Put(b)
	return nb
}

// GoodGrowThenHandoff is the ChunkLinesPooled idiom: the buffer grows
// through a helper that releases the old one, and the bytes past the
// cut move into a fresh buffer before the chunk is handed to emit, so
// every buffer has one owner at a time.
func GoodGrowThenHandoff(pool *chunkPool, emit func([]byte) error) ([]byte, error) {
	buf := append(pool.Get(64), "a\nb"...)
	buf = grow(pool, buf)
	rest := append(pool.Get(64), buf[2:]...)
	err := emit(buf[:2])
	if err != nil {
		pool.Put(rest)
		rest = nil
	}
	return rest, err
}

// BadGrowAfterPut releases the old buffer before copying out of it: by
// then a concurrent Get may have handed it to a new owner.
func BadGrowAfterPut(pool *chunkPool, b []byte) []byte {
	nb := pool.Get(2 * cap(b))
	pool.Put(b)
	return append(nb, b...) // want "used after being released"
}

// BadStageAlias returns the released item from a map stage: the engine
// recycles the chunk after the attempt, so the output must not share
// memory with it.
func BadStageAlias(ctx context.Context, src <-chan []byte) {
	_, _, _ = mapreduce.RunReleased(ctx, src, func(_ context.Context, chunk []byte) ([]byte, error) {
		return chunk[1:], nil // want "aliases released item chunk"
	}, first, nil, mapreduce.Config{}, func([]byte) {})
}

// BadStageComposite hides the alias inside a composite literal.
func BadStageComposite(ctx context.Context, src <-chan []byte) {
	type out struct{ raw []byte }
	_, _, _ = mapreduce.RunReleased(ctx, src, func(_ context.Context, chunk []byte) (out, error) {
		return out{raw: chunk}, nil // want "aliases released item chunk"
	}, func(a, b out) out { return a }, out{}, mapreduce.Config{}, func([]byte) {})
}

// GoodStageCopy copies what it keeps — string conversion and explicit
// append both produce fresh memory.
func GoodStageCopy(ctx context.Context, src <-chan []byte) {
	_, _, _ = mapreduce.RunReleased(ctx, src, func(_ context.Context, chunk []byte) (string, error) {
		return string(chunk), nil
	}, firstStr, "", mapreduce.Config{}, func([]byte) {})
}

// SuppressedStageAlias is acknowledged with a lint:ignore directive.
func SuppressedStageAlias(ctx context.Context, src <-chan []byte) {
	_, _, _ = mapreduce.RunReleased(ctx, src, func(_ context.Context, chunk []byte) ([]byte, error) {
		//lint:ignore poolescape release hook is a no-op in this run
		return chunk, nil
	}, first, nil, mapreduce.Config{}, func([]byte) {})
}

func first(a, b []byte) []byte { return a }

func firstStr(a, b string) string { return a }
