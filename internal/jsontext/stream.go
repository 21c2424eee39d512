package jsontext

import (
	"bytes"
	"io"
	"sync"

	"repro/internal/value"
)

// ParseAll parses every top-level JSON value in data.
func ParseAll(data []byte) ([]value.Value, error) {
	var vs []value.Value
	p := NewParser(bytes.NewReader(data), Options{})
	for {
		v, err := p.Next()
		if err == io.EOF {
			return vs, nil
		}
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
}

// SplitLines splits an NDJSON byte buffer into at most n chunks of
// roughly equal byte size, cutting only at value-safe line boundaries
// so each chunk holds whole JSON values. A newline is value-safe when
// it lies outside every string literal and at bracket depth zero —
// pretty-printed values spanning several lines stay in one chunk, so
// splitting is invisible to the parser (the end-to-end fuzz oracle at
// the repository root checks exactly this). Fewer than n chunks are
// returned when the data has fewer safe boundaries. This is the
// partitioning step of the map phase: chunks can be parsed
// independently and in parallel.
func SplitLines(data []byte, n int) [][]byte {
	if n <= 1 || len(data) == 0 {
		if len(data) == 0 {
			return nil
		}
		return [][]byte{data}
	}
	var chunks [][]byte
	target := len(data)/n + 1
	start := 0
	// One linear scan tracks just enough lexical state (string
	// literals with escapes, bracket depth) to recognize safe
	// newlines; on malformed input the state degrades toward "never
	// split", which keeps acceptance identical to a sequential parse.
	depth := 0
	inStr, esc := false, false
	for i := 0; i < len(data) && len(chunks) < n-1; i++ {
		c := data[i]
		if inStr {
			switch {
			case esc:
				esc = false
			case c == '\\':
				esc = true
			case c == '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '[', '{':
			depth++
		case ']', '}':
			if depth > 0 {
				depth--
			}
		case '\n':
			if depth == 0 && i+1-start >= target && i+1 < len(data) {
				chunks = append(chunks, data[start:i+1])
				start = i + 1
			}
		}
	}
	if start < len(data) {
		chunks = append(chunks, data[start:])
	}
	return chunks
}

// defaultChunkBytes is the chunk size ChunkLinesPooled uses when given
// zero. Partition size never shows in the schema (the reduce is
// associative and commutative), so it is only a cost choice: chunks this
// size keep the in-flight buffers of a run small, while much shorter
// ones spend more CPU on per-chunk work (the chunk's own fold, its
// records typed before the cover grew, and its merge).
const defaultChunkBytes = 256 << 10

// chunkSlack is the room every size class leaves above its power of
// four, so a chunk cut at a class size (the default, or a ChunkBytes of
// 64 KiB) whose last line runs a little past the threshold fits without
// moving up a class. Once a chunk is full, ChunkLinesPooled also reads
// at most this much at a time, which bounds the bytes it carries into
// the next chunk.
const chunkSlack = 4 << 10

// chunkClasses are the buffer capacities a ChunkPool serves: powers of
// four from 64 KiB up to a default chunk, each plus slack.
var chunkClasses = [...]int{64<<10 + chunkSlack, defaultChunkBytes + chunkSlack}

// classFor returns the index of the smallest class holding n bytes, or
// len(chunkClasses) when n exceeds them all.
func classFor(n int) int {
	c := 0
	for c < len(chunkClasses) && chunkClasses[c] < n {
		c++
	}
	return c
}

// A ChunkPool recycles chunk buffers between a feed and the release
// hook of the pipeline that consumed them, so the chunks of a large
// file and the many small bodies of a server reuse a handful of buffers
// instead of allocating one per chunk. It keeps one sync.Pool per size
// class (chunkClasses), so a small input reuses small buffers and never
// holds a chunk-sized one; a buffer beyond the top class, which only a
// line longer than a default chunk or a larger ChunkBytes needs, is
// allocated exactly and never kept. The zero value is ready to use; a
// nil *ChunkPool degrades to plain allocation (Get allocates fresh, Put
// drops), so pooled code paths need no nil branches. Buffers must only
// be Put back once their consumer is finished with them — with the
// map-reduce engine that is its Release hook, which fires after a
// chunk's final retry attempt.
//
// The pool has no cap on the bytes it retains, and needs none: a run
// holds a few buffers at a time, and the runtime forces a collection at
// least every two minutes, so an idle process hands the memory back.
type ChunkPool struct {
	classes [len(chunkClasses)]sync.Pool
	// observe, when set, sees every buffer Get returns and every buffer
	// Put accepts; tests count ownership through it.
	observe func(put bool, b []byte)
}

// Get returns an empty buffer with at least capHint capacity: a buffer
// of the smallest size class that fits, or of exactly capHint beyond
// the top class.
func (p *ChunkPool) Get(capHint int) []byte {
	var b []byte
	if c := classFor(capHint); c < len(chunkClasses) {
		if p != nil {
			if v := p.classes[c].Get(); v != nil {
				b = *(v.(*[]byte))
			}
		}
		capHint = chunkClasses[c]
	}
	if b == nil {
		b = make([]byte, 0, capHint)
	}
	if p != nil && p.observe != nil {
		p.observe(false, b)
	}
	return b
}

// Put returns a buffer to the pool for a later Get, filed under the
// largest class its capacity covers; a buffer below the smallest class,
// or beyond the top class, is dropped. The caller must not touch b
// afterwards.
func (p *ChunkPool) Put(b []byte) {
	if p == nil || cap(b) == 0 {
		return
	}
	if p.observe != nil {
		p.observe(true, b)
	}
	c := classFor(cap(b) + 1)
	if c == 0 || cap(b) > chunkClasses[len(chunkClasses)-1] {
		return
	}
	b = b[:0]
	p.classes[c-1].Put(&b)
}

// grow moves b into a buffer of the next class up (twice its capacity
// past the top class) and returns b to the pool.
func (p *ChunkPool) grow(b []byte) []byte {
	n := 2 * cap(b)
	if c := classFor(cap(b) + 1); c < len(chunkClasses) {
		n = chunkClasses[c]
	}
	nb := append(p.Get(n), b...)
	p.Put(b)
	return nb
}

// ChunkLinesPooled reads NDJSON from r and calls emit with line-aligned
// chunks of roughly chunkBytes bytes (zero means 256 KiB). A chunk ends
// right after the first newline at or past its chunkBytes-th byte, and
// whatever follows the last cut is flushed at EOF, so the final chunk
// may be smaller and a single line longer than chunkBytes becomes its
// own chunk. This is the streaming partitioner for inputs too large to
// hold in memory: chunks flow to parallel workers while the input is
// still being read. Any newline can end a chunk, so every value must
// sit on one line; a value spanning a cut fails to decode (SplitLines,
// by contrast, cuts only between values).
//
// Chunk buffers come from pool and r reads straight into them. A chunk
// starts in the smallest size class and moves up a class (copy, then
// Put the old buffer) only when its buffer is full, it is short of
// chunkBytes and r has not ended, so a small input never holds a
// chunk-sized buffer. Bytes read past a cut move into a fresh buffer
// for the next chunk. Each emitted chunk is handed to emit without
// copying, and ownership transfers with it — the consumer returns the
// buffer with pool.Put when (and only when) it is done, typically
// through the pipeline's release hook so retried map attempts never see
// a recycled buffer. With a nil pool every buffer is a fresh
// allocation. A read error is returned as is, and the unterminated tail
// pending at that point is never emitted.
func ChunkLinesPooled(r io.Reader, chunkBytes int, pool *ChunkPool, emit func([]byte) error) error {
	if chunkBytes <= 0 {
		chunkBytes = defaultChunkBytes
	}
	// Once a chunk is full, reads shrink to step bytes, so what one read
	// brings in past the cut is shorter than chunkBytes and holds no
	// second cut.
	step := min(chunkSlack, chunkBytes)
	var buf []byte
	empty := 0 // consecutive reads returning (0, nil)
	for {
		if len(buf) == cap(buf) {
			buf = pool.grow(buf)
		}
		end := min(cap(buf), chunkBytes)
		if len(buf) >= chunkBytes {
			end = min(cap(buf), len(buf)+step)
		}
		n, rerr := r.Read(buf[len(buf):end])
		// buf[:len(buf)] holds no cut, so only the new bytes past the
		// threshold need scanning.
		from := max(len(buf), chunkBytes-1)
		buf = buf[:len(buf)+n]
		if from < len(buf) {
			if i := bytes.IndexByte(buf[from:], '\n'); i >= 0 {
				var err error
				if buf, err = cutChunk(pool, buf, from+i+1, emit); err != nil {
					return err
				}
			}
		}
		if n > 0 || rerr != nil {
			empty = 0
		} else if empty++; empty == 100 {
			rerr = io.ErrNoProgress // a stuck reader fails as it does under bufio
		}
		if rerr != nil {
			return finishChunks(pool, buf, rerr, emit)
		}
	}
}

// cutChunk emits buf[:at] and returns the bytes after the cut in a
// fresh buffer from pool (nil when there are none). They move before
// emit runs, because emit takes ownership of buf.
func cutChunk(pool *ChunkPool, buf []byte, at int, emit func([]byte) error) ([]byte, error) {
	var rest []byte
	if at < len(buf) {
		rest = append(pool.Get(len(buf)-at), buf[at:]...)
	}
	err := emit(buf[:at])
	if err != nil {
		pool.Put(rest)
		rest = nil
	}
	return rest, err
}

// finishChunks ends the stream once r reports rerr: at io.EOF the tail
// in buf becomes the last chunk; after any other error nothing more is
// emitted and rerr is returned.
func finishChunks(pool *ChunkPool, buf []byte, rerr error, emit func([]byte) error) error {
	if rerr == io.EOF && len(buf) > 0 {
		return emit(buf)
	}
	pool.Put(buf)
	if rerr == io.EOF {
		return nil
	}
	return rerr
}

// CountLines reports the number of non-empty lines in an NDJSON buffer,
// i.e. the number of records without parsing them.
func CountLines(data []byte) int {
	n := 0
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		var line []byte
		if i < 0 {
			line, data = data, nil
		} else {
			line, data = data[:i], data[i+1:]
		}
		if len(bytes.TrimSpace(line)) > 0 {
			n++
		}
	}
	return n
}
