package jsontext

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"testing/iotest"
)

// refChunkLines is the boundary oracle: the chunker as it was before
// buffers were size-classed, a bufio.Reader cut into lines by ReadBytes
// and appended until a chunk reaches chunkBytes.
func refChunkLines(r io.Reader, chunkBytes int) ([][]byte, error) {
	if chunkBytes <= 0 {
		chunkBytes = defaultChunkBytes
	}
	br := bufio.NewReaderSize(r, 256<<10)
	var chunks [][]byte
	var buf []byte
	for {
		line, err := br.ReadBytes('\n')
		buf = append(buf, line...)
		if len(buf) >= chunkBytes {
			chunks, buf = append(chunks, buf), nil
		}
		if err == io.EOF {
			if len(buf) > 0 {
				chunks = append(chunks, buf)
			}
			return chunks, nil
		}
		if err != nil {
			return chunks, err
		}
	}
}

// chunkInput builds a random line-structured input around chunk size c:
// mostly short lines, some up to c, some longer than c, a quarter of
// them CRLF-terminated, and a third of inputs with no final newline.
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
		b.Write(bytes.Repeat([]byte("abcdefghijklmnopqrstuvwxyz"), n/26+1)[:n])
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
// once, the way a consumer that is done with it does.
func collect(t *testing.T, r io.Reader, chunkBytes int) ([][]byte, *poolLedger, error) {
	pool, l := newLedger(t)
	var chunks [][]byte
	err := ChunkLinesPooled(r, chunkBytes, pool, func(b []byte) error {
		l.emitted(b)
		chunks = append(chunks, bytes.Clone(b))
		pool.Put(b)
		return nil
	})
	return chunks, l, err
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
// bufio+ReadBytes chunker over random inputs, chunk sizes from one byte
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
			want, err := refChunkLines(bytes.NewReader(data), c)
			if err != nil {
				t.Fatal(err)
			}
			for _, rd := range readers {
				if rd.name == "onebyte" && len(data) > 8<<10 {
					continue // one Read per byte: keep the test fast
				}
				label := rd.name + "/" + strconv.Itoa(c)
				got, l, err := collect(t, rd.wrap(bytes.NewReader(data)), c)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
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
// them, and the unterminated tail is not.
func TestChunkLinesReadError(t *testing.T) {
	cause := errors.New("connection reset")
	const chunkBytes = 64
	data := bytes.Repeat([]byte("0123456789abcdef\n"), 100)
	for _, at := range []int{0, 5, 17, 67, 68, 300, 1000, len(data)} {
		want, _ := refChunkLines(bytes.NewReader(data[:at]), chunkBytes)
		if n := len(want); n > 0 && (len(want[n-1]) < chunkBytes || want[n-1][len(want[n-1])-1] != '\n') {
			want = want[:n-1] // the tail flushed at EOF, which an error forgoes
		}
		for _, sameCall := range []bool{false, true} {
			r := &failAfter{data: data[:at], err: cause, sameCall: sameCall}
			got, l, err := collect(t, r, chunkBytes)
			if !errors.Is(err, cause) {
				t.Errorf("at %d: err = %v, want %v", at, err, cause)
			}
			sameChunks(t, "at "+strconv.Itoa(at), got, want)
			l.balanced("at " + strconv.Itoa(at))
		}
	}
	// A reader stuck at (0, nil) fails the way bufio reports it.
	stuck := iotest.ErrReader(nil)
	if _, _, err := collect(t, stuck, chunkBytes); !errors.Is(err, io.ErrNoProgress) {
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
	got, l, err := collect(t, bytes.NewReader(body), 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refChunkLines(bytes.NewReader(body), 256<<10)
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
	got, l, err := collect(t, f, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refChunkLines(bytes.NewReader(data), 0)
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
		got, l, err := collect(t, bytes.NewReader(data), chunkBytes)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := refChunkLines(bytes.NewReader(data), chunkBytes)
		label := strconv.Itoa(chunkBytes)
		sameChunks(t, label, got, want)
		if l.maxCap > chunkClasses[c] {
			t.Errorf("chunks of %d bytes drew a %d-byte buffer, above their %d-byte class", chunkBytes, l.maxCap, chunkClasses[c])
		}
		l.balanced(label)
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
