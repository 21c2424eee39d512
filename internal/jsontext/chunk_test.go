package jsontext

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// A readEnd is where one Read a cutter made ended in the input, whether
// it came back short of what was asked, and its error.
type readEnd struct {
	at    int
	short bool
	err   error
}

// traceReader records the reads made through it.
type traceReader struct {
	r     io.Reader
	at    int
	reads []readEnd
}

func (t *traceReader) Read(p []byte) (int, error) {
	n, err := t.r.Read(p)
	t.at += n
	t.reads = append(t.reads, readEnd{at: t.at, short: n < len(p), err: err})
	return n, err
}

// refChunkLines is the boundary oracle: the cut rule written out the
// slow way, replayed against the reads a cutter made of data. After
// each read, every chunk the bytes read so far decide is cut: a chunk
// ends after the first newline at or past its chunkBytes-th byte that
// refSafe calls safe, once the byte after it has been read. Then a read
// that hit io.EOF ends the last chunk at the end of the input, and one
// that failed drops the tail; a read that came back short, with the
// chunk so far ending in a newline at depth zero outside strings, ends
// the chunk there. The depth (refDepths) is counted from the chunk's
// start, or, from the chunk's first such read on, from the last safe
// newline before it.
func refChunkLines(data []byte, chunkBytes int, reads []readEnd) ([][]byte, error) {
	if chunkBytes <= 0 {
		chunkBytes = defaultChunkBytes
	}
	var chunks [][]byte
	start := 0
	end, decided := refCut(data, start, chunkBytes)
	var depths []bool // refDepths from from up to decided
	from := 0
	cut := func(at int) {
		chunks, start = append(chunks, data[start:at]), at
		end, decided = refCut(data, start, chunkBytes)
		depths = nil
	}
	for _, rd := range reads {
		for decided <= rd.at {
			cut(end)
		}
		if rd.err != nil {
			if rd.err != io.EOF {
				return chunks, rd.err
			}
			if start < rd.at {
				chunks = append(chunks, data[start:rd.at])
			}
			return chunks, nil
		}
		if rd.short && start < rd.at && data[rd.at-1] == '\n' {
			if depths == nil {
				from = start
				for i := rd.at - 1; i >= start && from == start; i-- {
					if data[i] == '\n' {
						if safe, _ := refSafe(data[start:rd.at], i-start); safe {
							from = i + 1
						}
					}
				}
				depths = refDepths(data[from:min(decided, len(data))])
			}
			if depths[rd.at-from-1] {
				cut(rd.at)
			}
		}
	}
	return chunks, io.ErrUnexpectedEOF // the reads never reached the end
}

// refSafe reports whether the newline at index i of chunk is safe by
// the neighbour rule: its nearest non-whitespace neighbours in the chunk
// are not an opener before ([ { , :) or a closer after (, ] } :). It
// also returns the index of the byte after it that decides that, or
// len(chunk) when none has arrived, and then the newline is not safe.
func refSafe(chunk []byte, i int) (safe bool, next int) {
	space := func(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
	next = i + 1
	for next < len(chunk) && space(chunk[next]) {
		next++
	}
	if next == len(chunk) {
		return false, next
	}
	prev := byte(0)
	for p := i - 1; p >= 0; p-- {
		if !space(chunk[p]) {
			prev = chunk[p]
			break
		}
	}
	return !strings.ContainsRune("[{,:", rune(prev)) && !strings.ContainsRune(",]}:", rune(chunk[next])), next
}

// refCut returns the index just past the first newline of data at or
// past start+chunkBytes-1 that refSafe calls safe, and decided, the
// length of input that decides it: up to the byte after the newline.
// With no such newline decided stays past the input.
func refCut(data []byte, start, chunkBytes int) (end, decided int) {
	for i := start + chunkBytes - 1; i < len(data); i++ {
		if data[i] != '\n' {
			continue
		}
		safe, next := refSafe(data[start:], i-start)
		if start+next == len(data) {
			break
		}
		if safe {
			return i + 1, start + next + 1
		}
	}
	return -1, len(data) + 1
}

// refDepths is the byte scanner SplitLines ran before the cut rule:
// for each byte of data, read from a value boundary, whether the
// lexical state after it is outside every string literal and at bracket
// depth zero. On well-formed input a newline with that state sits
// between top-level values.
func refDepths(data []byte) []bool {
	at := make([]bool, len(data))
	depth := 0
	inStr, esc := false, false
	for i, c := range data {
		switch {
		case inStr && esc:
			esc = false
		case inStr && c == '\\':
			esc = true
		case inStr && c == '"':
			inStr = false
		case inStr:
		case c == '"':
			inStr = true
		case c == '[' || c == '{':
			depth++
		case (c == ']' || c == '}') && depth > 0:
			depth--
		}
		at[i] = depth == 0 && !inStr
	}
	return at
}

// chunkInput builds a random line-structured input around chunk size c:
// mostly short lines, some up to c, some longer than c, a quarter of
// them CRLF-terminated, and a third of inputs with no final newline. A
// quarter of the lines mix brackets, separators, quotes, escapes and
// blanks, so the neighbour rule and the depth scan both get to say no.
func chunkInput(rng *rand.Rand, c int) []byte {
	size := rng.Intn(4*c + 200)
	var b bytes.Buffer
	for b.Len() < size {
		var n int
		switch rng.Intn(8) {
		case 0:
			n = c + rng.Intn(c+2)
		case 1, 2:
			n = rng.Intn(c + 1)
		default:
			n = rng.Intn(80)
		}
		alphabet := "abcdefghijklmnopqrstuvwxyz"
		if rng.Intn(4) == 0 {
			alphabet = `ab [{,:}]" \`
		}
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		if rng.Intn(4) == 0 {
			b.WriteString("\r\n")
		} else {
			b.WriteByte('\n')
		}
	}
	data := b.Bytes()
	if rng.Intn(3) == 0 {
		data = bytes.TrimRight(data, "\r\n")
	}
	return data
}

// Owners of a buffer the pool handed out.
const (
	byChunker  = 1 // drawn by Get, not yet emitted or Put back
	byConsumer = 2 // emitted; the consumer may Put it back
)

// poolLedger follows every buffer a ChunkPool hands out, by backing
// array: Get gives it to the chunker, emit hands it to the consumer,
// and one Put by either returns it.
type poolLedger struct {
	t      *testing.T
	owner  map[*byte]int
	maxCap int
	peak   int // most buffers drawn and not yet Put back at once
}

// newLedger returns a pool whose Gets and Puts the ledger records.
func newLedger(t *testing.T) (*ChunkPool, *poolLedger) {
	l := &poolLedger{t: t, owner: make(map[*byte]int)}
	pool := &ChunkPool{observe: func(put bool, b []byte) {
		if put {
			if l.owner[base(b)] == 0 {
				t.Errorf("Put of a buffer that was never drawn or was already returned")
			}
			delete(l.owner, base(b))
			return
		}
		if l.owner[base(b)] != 0 {
			t.Errorf("Get returned a buffer that is still owned")
		}
		l.owner[base(b)] = byChunker
		l.maxCap = max(l.maxCap, cap(b))
		l.peak = max(l.peak, len(l.owner))
	}}
	return pool, l
}

func base(b []byte) *byte { return &b[:cap(b)][0] }

// emitted records the handoff of b from the chunker to the consumer.
func (l *poolLedger) emitted(b []byte) {
	l.t.Helper()
	if l.owner[base(b)] != byChunker {
		l.t.Errorf("emit of a buffer the chunker does not own")
	}
	l.owner[base(b)] = byConsumer
}

// balanced fails unless every drawn buffer was emitted or Put back.
func (l *poolLedger) balanced(label string) {
	l.t.Helper()
	for _, o := range l.owner {
		if o == byChunker {
			l.t.Errorf("%s: a buffer was drawn but neither emitted nor Put back", label)
			return
		}
	}
}

// collect runs ChunkLinesPooled over r with a ledger-tracked pool and
// returns copies of the chunks it emitted, each buffer Put back at
// once, the way a consumer that is done with it does, and the reads it
// made.
func collect(t *testing.T, r io.Reader, chunkBytes int) ([][]byte, []readEnd, *poolLedger, error) {
	pool, l := newLedger(t)
	var chunks [][]byte
	tr := &traceReader{r: r}
	err := ChunkLinesPooled(tr, chunkBytes, pool, func(b []byte) error {
		l.emitted(b)
		chunks = append(chunks, bytes.Clone(b))
		pool.Put(b)
		return nil
	})
	return chunks, tr.reads, l, err
}

func sameChunks(t *testing.T, label string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d chunks, want %d", label, len(got), len(want))
		return
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%s: chunk %d is %d bytes %q..., want %d bytes %q...", label, i,
				len(got[i]), got[i][:min(len(got[i]), 16)], len(want[i]), want[i][:min(len(want[i]), 16)])
			return
		}
	}
}

// TestChunkLinesMatchesReference pins every chunk boundary to the
// reference cutter, replayed against the cutter's own reads, over random
// inputs, chunk sizes from one byte
// to 4 MiB (on and just past the top size class too) and the default,
// and readers that return everything, half, one byte, or the last bytes
// together with io.EOF. Every drawn buffer must also be emitted or Put
// back exactly once.
func TestChunkLinesMatchesReference(t *testing.T) {
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"bytes", func(r io.Reader) io.Reader { return r }},
		{"half", iotest.HalfReader},
		{"dataerr", iotest.DataErrReader},
		{"onebyte", iotest.OneByteReader},
	}
	fixed := [][]byte{nil, []byte("\n"), []byte("\r\n\r\n"), []byte("abc"), []byte("{}\n{}")}
	rng := rand.New(rand.NewSource(1))
	for _, c := range []int{1, 2, 3, 7, 64, 1000, 4095, 4096, 4097, 64 << 10, 256 << 10, 260<<10 + 1, 300 << 10, 1 << 20, 4 << 20, 0} {
		gen := c
		if gen == 0 {
			gen = defaultChunkBytes
		}
		trials := min(100, max(1, (4<<20)/(4*gen+1024)))
		if testing.Short() {
			trials = min(trials, 10)
		}
		inputs := append([][]byte(nil), fixed...)
		for i := 0; i < trials; i++ {
			inputs = append(inputs, chunkInput(rng, gen))
		}
		for _, data := range inputs {
			for _, rd := range readers {
				if rd.name == "onebyte" && len(data) > 8<<10 {
					continue // one Read per byte: keep the test fast
				}
				label := rd.name + "/" + strconv.Itoa(c)
				got, reads, l, err := collect(t, rd.wrap(bytes.NewReader(data)), c)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				want, err := refChunkLines(data, c, reads)
				if err != nil {
					t.Fatalf("%s: reference: %v", label, err)
				}
				sameChunks(t, label, got, want)
				l.balanced(label)
			}
		}
	}
}

// failAfter yields data in 7-byte reads and then fails, either with the
// last bytes or on a read of its own.
type failAfter struct {
	data     []byte
	err      error
	sameCall bool
}

func (r *failAfter) Read(p []byte) (int, error) {
	n := copy(p, r.data[:min(len(r.data), 7)])
	r.data = r.data[n:]
	if len(r.data) == 0 && (n == 0 || r.sameCall) {
		return n, r.err
	}
	return n, nil
}

// TestChunkLinesReadError: a read error mid-stream is returned as is,
// the chunks completed before it are emitted as the reference cuts
// them, and the tail pending at the error is not.
func TestChunkLinesReadError(t *testing.T) {
	cause := errors.New("connection reset")
	const chunkBytes = 64
	data := bytes.Repeat([]byte("0123456789abcdef\n"), 100)
	for _, at := range []int{0, 5, 17, 67, 68, 300, 1000, len(data)} {
		for _, sameCall := range []bool{false, true} {
			r := &failAfter{data: data[:at], err: cause, sameCall: sameCall}
			got, reads, l, err := collect(t, r, chunkBytes)
			if !errors.Is(err, cause) {
				t.Errorf("at %d: err = %v, want %v", at, err, cause)
			}
			want, rerr := refChunkLines(data, chunkBytes, reads)
			if !errors.Is(rerr, cause) {
				t.Errorf("at %d: the reference ended with %v, want %v", at, rerr, cause)
			}
			sameChunks(t, "at "+strconv.Itoa(at), got, want)
			l.balanced("at " + strconv.Itoa(at))
		}
	}
	// A reader stuck at (0, nil) fails the way bufio reports it.
	stuck := iotest.ErrReader(nil)
	if _, _, _, err := collect(t, stuck, chunkBytes); !errors.Is(err, io.ErrNoProgress) {
		t.Errorf("stuck reader: err = %v, want %v", err, io.ErrNoProgress)
	}
}

// TestChunkLinesEmitError: an emit error stops the chunker at once and
// is returned, with every drawn buffer accounted for — including the
// one holding bytes already read past the failed cut.
func TestChunkLinesEmitError(t *testing.T) {
	stop := errors.New("consumer gone")
	data := bytes.Repeat([]byte(`{"a":1}`+"\n"), 1000)
	for _, tc := range []struct {
		chunkBytes, failAt int
	}{{100, 1}, {100, 2}, {100, 50}, {0, 1}, {1 << 10, 8}} {
		pool, l := newLedger(t)
		calls := 0
		err := ChunkLinesPooled(bytes.NewReader(data), tc.chunkBytes, pool, func(b []byte) error {
			l.emitted(b)
			if calls++; calls == tc.failAt {
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) {
			t.Errorf("%+v: err = %v, want %v", tc, err, stop)
		}
		if calls != tc.failAt {
			t.Errorf("%+v: emit called %d times after failing on call %d", tc, calls, tc.failAt)
		}
		l.balanced(strconv.Itoa(tc.chunkBytes))
	}
}

// TestChunkLinesBufferFollowsBody: a 300 KB body, a large schemad
// ingest, is cut at the default 256 KiB into two chunks, and neither
// draws a buffer above the default chunk's class.
func TestChunkLinesBufferFollowsBody(t *testing.T) {
	body := bytes.Repeat([]byte(`{"id": 123456, "text": "a tweet-sized body of text"}`+"\n"), 6000)
	got, reads, l, err := collect(t, bytes.NewReader(body), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refChunkLines(body, 256<<10, reads)
	sameChunks(t, "body", got, want)
	if len(got) != 2 {
		t.Errorf("a %d-byte body made %d chunks, want 2", len(body), len(got))
	}
	if top := chunkClasses[len(chunkClasses)-1]; l.maxCap > top {
		t.Errorf("a %d-byte body drew a %d-byte buffer; want none above the %d-byte chunk class", len(body), l.maxCap, top)
	}
	l.balanced("body")
}

// TestChunkLinesLargeFileFullChunks: a file larger than the default
// chunk still yields full-size chunks, each ending at the first newline
// past the threshold, exactly as the reference cuts them.
func TestChunkLinesLargeFileFullChunks(t *testing.T) {
	line := []byte(`{"repo": "octocat/hello-world", "stars": 42, "fork": false}` + "\n")
	data := bytes.Repeat(line, (5*defaultChunkBytes/2)/len(line))
	path := filepath.Join(t.TempDir(), "big.ndjson")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, reads, l, err := collect(t, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refChunkLines(data, 0, reads)
	sameChunks(t, "file", got, want)
	if len(got) != 3 {
		t.Fatalf("%d chunks, want 3", len(got))
	}
	for i, c := range got[:len(got)-1] {
		if len(c) < defaultChunkBytes || len(c) >= defaultChunkBytes+len(line) {
			t.Errorf("chunk %d is %d bytes, want a full %d-byte chunk plus at most one line", i, len(c), defaultChunkBytes)
		}
	}
	if top := chunkClasses[len(chunkClasses)-1]; l.maxCap > top {
		t.Errorf("full chunks drew a %d-byte buffer; want none above the %d-byte chunk class", l.maxCap, top)
	}
	l.balanced("file")
}

// TestChunkLinesClassSizedChunks: a stream cut at a class size, with
// every line shorter than chunkSlack, fills each chunk inside that
// class's buffer and never draws one from a class above it, while the
// cuts stay where the reference puts them.
func TestChunkLinesClassSizedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for c, class := range chunkClasses {
		chunkBytes := class - chunkSlack
		var b bytes.Buffer
		for b.Len() < 5*chunkBytes/2 {
			b.Write(bytes.Repeat([]byte("x"), rng.Intn(chunkSlack-1)))
			b.WriteByte('\n')
		}
		data := b.Bytes()
		got, reads, l, err := collect(t, bytes.NewReader(data), chunkBytes)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := refChunkLines(data, chunkBytes, reads)
		label := strconv.Itoa(chunkBytes)
		sameChunks(t, label, got, want)
		if l.maxCap > chunkClasses[c] {
			t.Errorf("chunks of %d bytes drew a %d-byte buffer, above their %d-byte class", chunkBytes, l.maxCap, chunkClasses[c])
		}
		l.balanced(label)
	}
}

// TestLineCutterSpills: NextOrRest cuts as Next does until a chunk
// reaches SpillChunks chunk sizes without a safe cut, here inside a
// pretty-printed array twice that long. Then it returns exactly the
// bound's worth of held bytes, in a buffer no larger, with the rest of
// the reader, which carries on where the chunk stops, and it reports
// the end from then on. Next holds the whole array in one chunk.
func TestLineCutterSpills(t *testing.T) {
	const chunkBytes = 64 << 10
	const bound = SpillChunks * chunkBytes
	var b bytes.Buffer
	for b.Len() < 3*chunkBytes {
		b.WriteString(`{"a": 1}` + "\n")
	}
	head := b.Len()
	b.WriteString("[\n")
	for b.Len() < head+2*bound {
		b.WriteString("  1,\n")
	}
	b.WriteString("  2\n]\n" + `{"b": 2}` + "\n")
	data := b.Bytes()

	pool, l := newLedger(t)
	cut := NewLineCutter(bytes.NewReader(data), chunkBytes, pool)
	var joined []byte
	var prev []byte
	spills := 0
	for {
		chunk, rest, ok, err := cut.NextOrRest(prev)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		l.emitted(chunk)
		start := len(joined)
		joined = append(joined, chunk...)
		prev = chunk
		if rest == nil {
			if len(chunk) < chunkBytes || chunk[len(chunk)-1] != '\n' {
				t.Errorf("chunk at %d of %d bytes is not a full chunk ending in a newline", start, len(chunk))
			}
			continue
		}
		spills++
		if len(chunk) != bound || start > head {
			t.Errorf("spilled a %d-byte chunk at %d, want %d bytes from at most %d, the array's start", len(chunk), start, bound, head)
		}
		tail, err := io.ReadAll(rest)
		if err != nil {
			t.Fatal(err)
		}
		joined = append(joined, tail...)
	}
	if !bytes.Equal(joined, data) || spills != 1 {
		t.Errorf("%d spills; chunks and rest join to %d bytes, want the %d input bytes", spills, len(joined), len(data))
	}
	if l.maxCap > bound {
		t.Errorf("drew a %d-byte buffer, above the %d-byte bound", l.maxCap, bound)
	}
	if n := l.Live(); n != 0 {
		t.Errorf("%d buffers never returned to the pool", n)
	}

	got, _, _, err := collect(t, bytes.NewReader(data), chunkBytes)
	if err != nil {
		t.Fatal(err)
	}
	arrayEnd := bytes.Index(data, []byte("]\n")) + 2
	at := 0
	for _, c := range got {
		if at <= head && head < at+len(c) && at+len(c) < arrayEnd {
			t.Errorf("Next cut the array: the %d-byte chunk at %d starts it and ends at %d, before its end at %d", len(c), at, at+len(c), arrayEnd)
		}
		at += len(c)
	}
}

// TestChunkPoolClasses: Get serves the smallest class that fits, and
// exactly the hint beyond the top class; a nil pool allocates the same.
// Every class is pooled, the default chunk's included, while a buffer
// beyond the top class is dropped on Put.
func TestChunkPoolClasses(t *testing.T) {
	var p ChunkPool
	top := defaultChunkBytes + chunkSlack
	for _, tc := range []struct{ hint, cap int }{
		{0, 64<<10 + chunkSlack}, {1, 64<<10 + chunkSlack}, {64<<10 + chunkSlack, 64<<10 + chunkSlack},
		{64<<10 + chunkSlack + 1, top}, {defaultChunkBytes, top}, {top, top},
		{top + 1, top + 1}, {1 << 20, 1 << 20},
	} {
		if b := p.Get(tc.hint); cap(b) != tc.cap || len(b) != 0 {
			t.Errorf("Get(%d): len %d cap %d, want 0, %d", tc.hint, len(b), cap(b), tc.cap)
		}
	}
	if len(chunkClasses) != 2 || chunkClasses[len(chunkClasses)-1] != top {
		t.Errorf("chunkClasses = %v, want 64 KiB and the default chunk, each plus slack", chunkClasses)
	}
	// A buffer beyond the top class is not filed under it.
	big := p.Get(top + 1)[:1]
	p.Put(big)
	if b := p.Get(top)[:1]; &b[0] == &big[0] {
		t.Error("a buffer beyond the top class came back from the pool")
	}
	// A default-chunk buffer is kept. The race detector drops a quarter
	// of sync.Pool puts on purpose, so allow a few tries.
	reused := false
	for try := 0; try < 16 && !reused; try++ {
		b := p.Get(defaultChunkBytes)[:1]
		p.Put(b)
		reused = &p.Get(defaultChunkBytes)[:1][0] == &b[0]
	}
	if !reused {
		t.Error("a default-chunk buffer never came back from the pool")
	}
	var nilPool *ChunkPool
	if b := nilPool.Get(10); cap(b) != 64<<10+chunkSlack {
		t.Errorf("nil pool Get(10): cap %d, want %d", cap(b), 64<<10+chunkSlack)
	}
	nilPool.Put(make([]byte, 1)) // dropped, not a panic
}
