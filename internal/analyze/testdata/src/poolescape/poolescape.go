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

// grow is the LineCutter growth step: copy into the bigger buffer
// first, then release the old one and never touch it again.
func grow(pool *chunkPool, b []byte) []byte {
	nb := append(pool.Get(2*cap(b)), b...)
	pool.Put(b)
	return nb
}

// cutter is the shape of jsontext.LineCutter: the bytes read past the
// last cut wait in a carry of its own between calls.
type cutter struct {
	pool  *chunkPool
	carry []byte
}

// GoodNextHandsBack is the LineCutter.Next idiom, the pull feed of
// mapreduce.Run: the chunk the worker hands back goes to the pool
// before anything else and is never touched again; the next chunk grows
// through a helper that releases the old buffer, and the bytes past the
// cut move into the carry before the chunk is returned, so every buffer
// has one owner at a time.
func (c *cutter) GoodNextHandsBack(prev []byte) ([]byte, bool, error) {
	c.pool.Put(prev)
	buf := append(c.pool.Get(len(c.carry)), c.carry...)
	buf = grow(c.pool, append(buf, "a\nb"...))
	c.carry = append(c.carry[:0], buf[2:]...)
	return buf[:2], true, nil
}

// BadNextReusesPrev hands the returned chunk back to the pool and then
// refills it: the pool may already have given it to another worker.
func (c *cutter) BadNextReusesPrev(prev []byte) ([]byte, bool, error) {
	c.pool.Put(prev)
	return append(prev[:0], c.carry...), true, nil // want "used after being released"
}

// BadGrowAfterPut releases the old buffer before copying out of it: by
// then a concurrent Get may have handed it to a new owner.
func BadGrowAfterPut(pool *chunkPool, b []byte) []byte {
	nb := pool.Get(2 * cap(b))
	pool.Put(b)
	return append(nb, b...) // want "used after being released"
}

// BadStageAlias returns the released item from a map stage: the engine
// hands the chunk back to next after the attempt, which may recycle it,
// so the output must not share memory with it.
func BadStageAlias(ctx context.Context, next func([]byte) ([]byte, bool, error)) {
	_, _, _ = mapreduce.Run(ctx, next, func(_ context.Context, chunk []byte) ([]byte, error) {
		return chunk[1:], nil // want "aliases released item chunk"
	}, first, nil, mapreduce.Config{})
}

// BadStageComposite hides the alias inside a composite literal.
func BadStageComposite(ctx context.Context, next func([]byte) ([]byte, bool, error)) {
	type out struct{ raw []byte }
	_, _, _ = mapreduce.Run(ctx, next, func(_ context.Context, chunk []byte) (out, error) {
		return out{raw: chunk}, nil // want "aliases released item chunk"
	}, func(a, b out) out { return a }, out{}, mapreduce.Config{})
}

// GoodStageCopy copies what it keeps — string conversion and explicit
// append both produce fresh memory.
func GoodStageCopy(ctx context.Context, next func([]byte) ([]byte, bool, error)) {
	_, _, _ = mapreduce.Run(ctx, next, func(_ context.Context, chunk []byte) (string, error) {
		return string(chunk), nil
	}, firstStr, "", mapreduce.Config{})
}

// SuppressedStageAlias is acknowledged with a lint:ignore directive.
func SuppressedStageAlias(ctx context.Context, next func([]byte) ([]byte, bool, error)) {
	_, _, _ = mapreduce.Run(ctx, next, func(_ context.Context, chunk []byte) ([]byte, error) {
		//lint:ignore poolescape this next never recycles what it is handed back
		return chunk, nil
	}, first, nil, mapreduce.Config{})
}

func first(a, b []byte) []byte { return a }

func firstStr(a, b string) string { return a }
