package jsontext

import (
	"bytes"
	"io"
	"math"
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
// roughly equal byte size, cutting only between top-level values so
// each chunk holds whole JSON values: from each target offset it takes
// the first safe newline (see safeNewline), the cut rule a LineCutter
// follows too. Pretty-printed values spanning several lines stay in one
// chunk, so splitting is invisible to the parser (the end-to-end fuzz
// oracle at the repository root checks exactly this). Fewer than n
// chunks are returned when the data has fewer safe boundaries. Finding
// a cut looks at a few bytes around each newline it passes, not at
// every byte. This is the partitioning step of the map phase: chunks
// can be parsed independently and in parallel.
func SplitLines(data []byte, n int) [][]byte {
	if len(data) == 0 {
		return nil
	}
	var chunks [][]byte
	target := len(data)/max(n, 1) + 1
	start := 0
	for len(chunks) < n-1 {
		s := cutScan{from: start + target - 1}
		i := s.next(data)
		if i < 0 {
			break
		}
		chunks = append(chunks, data[start:i])
		start = i
	}
	return append(chunks, data[start:])
}

// safeNewline reports whether a newline whose nearest non-whitespace
// neighbours are prev and next (0: the start of the input) lies between
// two top-level values, where a chunk may end. Valid JSON never has a
// raw newline inside a string, and any two consecutive tokens inside an
// array or object have a first token in [ { , : or a second token in
// , ] } : — a value is followed by a separator or a closing bracket,
// and a separator or an opening bracket by a value or a key — while two
// consecutive top-level values have neither. So on valid input the
// answer is exactly whether the newline sits at depth zero outside
// strings. On other input a wrongly safe newline is followed at once by
// the first syntax error, so a chunk it bounds fails to parse and every
// Source still rejects what a sequential parse rejects
// (docs/PERFORMANCE.md, "One cut rule").
func safeNewline(prev, next byte) bool {
	switch prev {
	case '[', '{', ',', ':':
		return false
	}
	switch next {
	case ',', ']', '}', ':':
		return false
	}
	return true
}

// isSpace reports whether c is JSON whitespace.
func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// lastNonSpace returns the index of the last non-whitespace byte of
// data before index i, or -1 when there is none.
func lastNonSpace(data []byte, i int) int {
	i--
	for i >= 0 && isSpace(data[i]) {
		i--
	}
	return i
}

// byteAt returns data[i], or 0 for the -1 of lastNonSpace: before a
// buffer's first byte lies the end of a value or the start of the
// input, so no opener either way.
func byteAt(data []byte, i int) byte {
	if i < 0 {
		return 0
	}
	return data[i]
}

// A cutScan finds the first safe newline at or past index from of a
// buffer that starts at a value boundary and may still be growing. A
// newline is decided once the next non-whitespace byte has arrived:
// until then it is pending, and the scan resumes there when the buffer
// grows, without walking the whitespace again. A newline followed only
// by whitespace up to the end of the input is never a cut, so trailing
// whitespace stays with the chunk before it.
type cutScan struct {
	from int // the next byte to look at
	nl   int // 1 + the index of the pending newline; 0 when none is
}

// next returns the index just past the first safe newline of data at or
// past the scan's position, or -1 when data holds no decided one.
func (s *cutScan) next(data []byte) int {
	for s.from < len(data) {
		if s.nl == 0 {
			j := bytes.IndexByte(data[s.from:], '\n')
			if j < 0 {
				s.from = len(data)
				return -1
			}
			s.from += j + 1
			s.nl = s.from
		}
		for s.from < len(data) && isSpace(data[s.from]) {
			s.from++
		}
		if s.from == len(data) {
			return -1
		}
		nl := s.nl
		s.nl = 0
		if safeNewline(byteAt(data, lastNonSpace(data, nl-1)), data[s.from]) {
			return nl
		}
	}
	return -1
}

// A depthScan follows the lexical state of a buffer that starts at a
// value boundary — string literals with escapes, bracket depth — a byte
// at a time, resuming where it stopped when the buffer grows. It judges
// a newline whose next token has not arrived (see LineCutter). On
// malformed input the state degrades toward "inside a value", which
// only holds a chunk back.
type depthScan struct {
	pos, depth int
	inStr, esc bool
	started    bool
}

// atBoundary scans data, which ends in a newline, on from where the
// last call stopped and reports whether its end lies outside every
// string literal and bracket. The first call starts after the last
// newline before the end that the neighbour rule calls safe: on valid
// input that newline lies between values, so the scan reads about one
// line instead of the whole buffer. On malformed input a wrong start
// can only misjudge a buffer that holds a syntax error, which fails to
// parse wherever it is cut.
func (d *depthScan) atBoundary(data []byte) bool {
	if !d.started {
		d.started = true
		d.pos = lastSafeNewline(data) + 1
	}
	for ; d.pos < len(data); d.pos++ {
		c := data[d.pos]
		if d.inStr {
			switch {
			case d.esc:
				d.esc = false
			case c == '\\':
				d.esc = true
			case c == '"':
				d.inStr = false
			}
			continue
		}
		switch c {
		case '"':
			d.inStr = true
		case '[', '{':
			d.depth++
		case ']', '}':
			if d.depth > 0 {
				d.depth--
			}
		}
	}
	return d.depth == 0 && !d.inStr
}

// lastSafeNewline returns the index of the last newline of data that
// has a non-whitespace byte after it in data and is safe by the
// neighbour rule (see safeNewline), or -1 when there is none. Newlines
// in one whitespace run share their neighbours, so each byte is looked
// at a bounded number of times.
func lastSafeNewline(data []byte) int {
	end := len(data)
	for {
		i := bytes.LastIndexByte(data[:end], '\n')
		if i < 0 {
			return -1
		}
		next := i + 1
		for next < len(data) && isSpace(data[next]) {
			next++
		}
		p := lastNonSpace(data, i)
		if next < len(data) && safeNewline(byteAt(data, p), data[next]) {
			return i
		}
		if p < 0 {
			return -1
		}
		end = p
	}
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

// SpillChunks bounds the bytes NextOrRest holds for one chunk: once a
// chunk reaches SpillChunks times the chunk size without a safe cut,
// the cutter stops and hands the held bytes over with the rest of its
// reader, to be decoded as one stream. In practice only a large
// pretty-printed document has no safe newline in such a stretch, and
// holding it whole would make a run's memory grow with the document.
const SpillChunks = 16

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
// value longer than a default chunk or a larger ChunkBytes needs, is
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

// Observe installs f to see every buffer Get returns (put false) and
// every buffer Put accepts (put true); nil removes it. It lets a test
// follow the buffers of runs that draw from the pool. Install it while
// no run uses the pool; f is called under the same serialization as
// Get and Put.
func (p *ChunkPool) Observe(f func(put bool, b []byte)) { p.observe = f }

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
// past the top class, but no more than limit) and returns b to the
// pool.
func (p *ChunkPool) grow(b []byte, limit int) []byte {
	n := 2 * cap(b)
	if c := classFor(cap(b) + 1); c < len(chunkClasses) {
		n = chunkClasses[c]
	}
	nb := append(p.Get(min(n, limit)), b...)
	p.Put(b)
	return nb
}

// A LineCutter cuts a stream of JSON values into chunks of roughly
// chunkBytes bytes (zero means 256 KiB), one per call to Next, each
// ending between two top-level values. A chunk ends right after the
// first safe newline (see safeNewline) at or past its chunkBytes-th
// byte, decided once the next non-whitespace byte has been read, and
// whatever follows the last cut becomes the final chunk at EOF. So the
// final chunk may be smaller, a value longer than chunkBytes ends a
// chunk of its own, and a value spanning several lines is never cut:
// every Source accepts what a sequential parse accepts.
//
// A producer that pauses at a line end — a pipe, a socket, a request
// body arriving in pieces — still gets its records typed as they
// arrive. When a read comes back short and the held bytes end in a
// newline, waiting for the next token could block, so the cutter
// judges that newline by a depth scan of the held bytes (depthScan),
// which start at a value boundary, from their last safe newline on, and
// if it lies between values hands the held bytes over as a chunk of
// whatever size. Files and in-memory readers fill every read but the
// last, so on them the scan runs at most once per input.
//
// r reads straight into a buffer from pool, which the caller owns until
// it hands the chunk back. A chunk starts in the smallest size class
// and moves up a class (copy, then Put the old buffer) only when its
// buffer is full, it is short of chunkBytes or of a cut and r has not
// ended, so a small input never holds a chunk-sized buffer. Between
// calls the cutter holds only the bytes it read past the last cut, in a
// carry of its own. With a nil pool every buffer is a fresh allocation.
type LineCutter struct {
	r          io.Reader
	chunkBytes int
	pool       *ChunkPool
	carry      []byte // bytes read past the last cut
	paused     bool   // the last read came back short
	ended      bool   // r has reported an error or io.EOF, or was handed over
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
// and cuts the next chunk, holding as many bytes as it takes to reach a
// safe cut; its shape is the pull feed of mapreduce.Run, which hands
// each chunk back after its final map attempt. At the end of the stream
// ok is false and err is the read error, if any, which is returned as
// is; the tail pending at a read error is never returned. Called again
// after the end, Next only takes back prev.
func (c *LineCutter) Next(prev []byte) (chunk []byte, ok bool, err error) {
	chunk, _, ok, err = c.cut(prev, math.MaxInt)
	return chunk, ok, err
}

// NextOrRest is Next with the bytes held for one chunk bounded by
// SpillChunks times the chunk size. A chunk that reaches the bound
// without a safe cut is returned with rest, the reader it continues in:
// the chunk's bytes followed by everything rest yields are one stream
// of values, which its consumer decodes as such, and the cutter reports
// the end from then on. rest is nil on every other chunk.
func (c *LineCutter) NextOrRest(prev []byte) (chunk []byte, rest io.Reader, ok bool, err error) {
	return c.cut(prev, SpillChunks*c.chunkBytes)
}

// cut is Next and NextOrRest, the held bytes bounded by limit.
func (c *LineCutter) cut(prev []byte, limit int) (chunk []byte, rest io.Reader, ok bool, err error) {
	c.pool.Put(prev)
	if c.ended && (c.err != nil || len(c.carry) == 0) {
		return nil, nil, false, c.err
	}
	// Once a chunk is full, reads shrink to step bytes, so a read brings
	// in little past the cut.
	step := min(chunkSlack, c.chunkBytes)
	buf := append(c.pool.Get(len(c.carry)), c.carry...)
	c.carry = c.carry[:0]
	scan := cutScan{from: c.chunkBytes - 1}
	var depth depthScan
	for empty := 0; ; { // empty counts consecutive (0, nil) reads
		if i := scan.next(buf); i >= 0 {
			c.carry = append(c.carry, buf[i:]...)
			return buf[:i], nil, true, nil
		}
		if c.ended {
			break
		}
		if c.paused && len(buf) > 0 && buf[len(buf)-1] == '\n' && depth.atBoundary(buf) {
			return buf, nil, true, nil
		}
		if len(buf) >= limit {
			// From here on r is the consumer's to read.
			c.ended = true
			return buf, c.r, true, nil
		}
		if len(buf) == cap(buf) {
			buf = c.pool.grow(buf, limit)
		}
		end := min(cap(buf), c.chunkBytes)
		if len(buf) >= c.chunkBytes {
			end = min(cap(buf), len(buf)+step, limit)
		}
		n, rerr := c.r.Read(buf[len(buf):end])
		c.paused = len(buf)+n < end
		buf = buf[:len(buf)+n]
		if n > 0 || rerr != nil {
			empty = 0
		} else if empty++; empty == 100 {
			rerr = io.ErrNoProgress // a stuck reader fails as it does under bufio
		}
		if c.ended = rerr != nil; rerr != io.EOF {
			c.err = rerr
		}
	}
	// At io.EOF what is left becomes the last chunk.
	if c.err == nil && len(buf) > 0 {
		return buf, nil, true, nil
	}
	c.pool.Put(buf)
	return nil, nil, false, c.err
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
