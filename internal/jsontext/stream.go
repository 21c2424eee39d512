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

// defaultChunkBytes is the chunk size a LineCutter uses when given
// zero. Partition size never shows in the schema (the reduce is
// associative and commutative), so it is only a cost choice: chunks this
// size keep the in-flight buffers of a run small, while much shorter
// ones spend more CPU on per-chunk work (the chunk's own fold, its
// records typed before the cover grew, and its merge).
const defaultChunkBytes = 256 << 10

// chunkSlack is the room every size class leaves above its power of
// four, so a chunk cut at a class size (the default, or a ChunkBytes of
// 64 KiB) whose last line runs a little past the threshold fits without
// moving up a class. Once a chunk is full, a LineCutter also reads
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

// A ChunkPool recycles chunk buffers between a LineCutter and the
// workers of the pipeline that consume them, so the chunks of a large
// file and the many small bodies of a server reuse a handful of buffers
// instead of allocating one per chunk. It keeps one sync.Pool per size
// class (chunkClasses), so a small input reuses small buffers and never
// holds a chunk-sized one; a buffer beyond the top class, which only a
// line longer than a default chunk or a larger ChunkBytes needs, is
// allocated exactly and never kept. The zero value is ready to use; a
// nil *ChunkPool degrades to plain allocation (Get allocates fresh, Put
// drops), so pooled code paths need no nil branches. Buffers must only
// be Put back once their consumer is finished with them — with the
// map-reduce engine that is when a worker hands the chunk back to
// LineCutter.Next, after the chunk's final retry attempt.
//
// The pool has no cap on the bytes it retains, and needs none: a run
// holds one buffer per worker, and the runtime forces a collection at
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

// A LineCutter cuts a stream of NDJSON into line-aligned chunks of
// roughly chunkBytes bytes (zero means 256 KiB), one per call to Next.
// A chunk ends right after the first newline at or past its
// chunkBytes-th byte, and whatever follows the last cut becomes the
// final chunk at EOF, so the final chunk may be smaller and a single
// line longer than chunkBytes becomes its own chunk. Any newline can
// end a chunk, so every value must sit on one line; a value spanning a
// cut fails to decode (SplitLines, by contrast, cuts only between
// values).
//
// r reads straight into a buffer from pool, which the caller owns until
// it hands the chunk back. A chunk starts in the smallest size class
// and moves up a class (copy, then Put the old buffer) only when its
// buffer is full, it is short of chunkBytes and r has not ended, so a
// small input never holds a chunk-sized buffer. Between calls the
// cutter holds only the bytes it read past the last cut, fewer than
// chunkSlack, in a carry of its own. With a nil pool every buffer is a
// fresh allocation.
type LineCutter struct {
	r          io.Reader
	chunkBytes int
	pool       *ChunkPool
	carry      []byte // bytes read past the last cut
	ended      bool   // r has reported an error or io.EOF
	err        error  // that error, nil at io.EOF
}

// NewLineCutter returns a cutter over r.
func NewLineCutter(r io.Reader, chunkBytes int, pool *ChunkPool) *LineCutter {
	if chunkBytes <= 0 {
		chunkBytes = defaultChunkBytes
	}
	return &LineCutter{r: r, chunkBytes: chunkBytes, pool: pool}
}

// Next Puts prev (a chunk it returned before, or nil) back to the pool
// and cuts the next chunk; its shape is the pull feed of mapreduce.Run,
// which hands each chunk back after its final map attempt. At the end
// of the stream ok is false and err is the read error, if any, which is
// returned as is; the unterminated tail pending at a read error is never
// returned. Called again after the end, Next only takes back prev.
func (c *LineCutter) Next(prev []byte) (chunk []byte, ok bool, err error) {
	c.pool.Put(prev)
	if c.ended && (c.err != nil || len(c.carry) == 0) {
		return nil, false, c.err
	}
	// Once a chunk is full, reads shrink to step bytes, so what one read
	// brings in past the cut is shorter than chunkBytes and holds no
	// second cut.
	step := min(chunkSlack, c.chunkBytes)
	buf := append(c.pool.Get(len(c.carry)), c.carry...)
	c.carry = c.carry[:0]
	for empty := 0; !c.ended; { // empty counts consecutive (0, nil) reads
		if len(buf) == cap(buf) {
			buf = c.pool.grow(buf)
		}
		end := min(cap(buf), c.chunkBytes)
		if len(buf) >= c.chunkBytes {
			end = min(cap(buf), len(buf)+step)
		}
		n, rerr := c.r.Read(buf[len(buf):end])
		// buf[:len(buf)] holds no cut, so only the new bytes past the
		// threshold need scanning.
		from := max(len(buf), c.chunkBytes-1)
		buf = buf[:len(buf)+n]
		if n > 0 || rerr != nil {
			empty = 0
		} else if empty++; empty == 100 {
			rerr = io.ErrNoProgress // a stuck reader fails as it does under bufio
		}
		if c.ended = rerr != nil; rerr != io.EOF {
			c.err = rerr
		}
		if from < len(buf) {
			if i := bytes.IndexByte(buf[from:], '\n'); i >= 0 {
				c.carry = append(c.carry, buf[from+i+1:]...)
				return buf[:from+i+1], true, nil
			}
		}
	}
	// At io.EOF what is left becomes the last chunk.
	if c.err == nil && len(buf) > 0 {
		return buf, true, nil
	}
	c.pool.Put(buf)
	return nil, false, c.err
}

// ChunkLinesPooled reads NDJSON from r and calls emit with the chunks a
// LineCutter cuts, in order, each without copying: the consumer owns
// the buffer and returns it with pool.Put when it is done. An emit
// error stops the cutting and is returned, as is a read error.
func ChunkLinesPooled(r io.Reader, chunkBytes int, pool *ChunkPool, emit func([]byte) error) error {
	c := NewLineCutter(r, chunkBytes, pool)
	for {
		chunk, ok, err := c.Next(nil)
		if !ok {
			return err
		}
		if err := emit(chunk); err != nil {
			return err
		}
	}
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
