package jsontext

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"
	"testing/iotest"

	"repro/internal/value"
)

// FuzzParseAgainstEncodingJSON cross-checks the hand-rolled parser
// against the standard library on arbitrary byte inputs:
//
//   - whatever encoding/json rejects outright as a prefix value we may
//     accept or reject (we are stricter about duplicate keys and control
//     characters), but we must never crash;
//   - whatever both accept must decode to the same Go shape.
//
// Run with `go test -fuzz FuzzParseAgainstEncodingJSON ./internal/jsontext`
// for continuous fuzzing; under plain `go test` the seed corpus runs as
// a regression suite.
func FuzzParseAgainstEncodingJSON(f *testing.F) {
	seeds := []string{
		`null`, `true`, `false`, `0`, `-12.5e3`, `"str"`, `""`,
		`[]`, `{}`, `[1,2,3]`, `{"a":{"b":[null,true]}}`,
		`{"a":1,"b":2}`, `"é😀"`, `"\\"`,
		`[[[[[]]]]]`, `{"":""}`, ` 7 `, "{\"a\"\n:\t1}",
		`{"a":1,"a":2}`, `[1,]`, `{`, `1e999`, `"\ud800"`, "\x00",
		`0.1e+5`, `-0`, `[{"x":[]},"mixed",3]`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, ourErr := ParseBytes(data)
		var oracle any
		stdErr := json.Unmarshal(data, &oracle)
		if ourErr == nil {
			// We accepted: the standard library must agree on the shape
			// (it accepts everything we do — our extra strictness only
			// REJECTS more).
			if stdErr != nil {
				t.Fatalf("we accepted %q (%s) but encoding/json rejects it: %v", data, value.JSON(v), stdErr)
			}
			if got := value.ToGo(v); !reflect.DeepEqual(got, oracle) {
				t.Fatalf("shape mismatch for %q:\n ours  %#v\n oracle %#v", data, got, oracle)
			}
			// Canonical rendering must re-parse to an equal value.
			back, err := ParseBytes([]byte(value.JSON(v)))
			if err != nil || !value.Equal(v, back) {
				t.Fatalf("canonical render of %q does not round trip: %v", data, err)
			}
		}
	})
}

// FuzzLexerNeverHangs feeds arbitrary bytes to the raw lexer and checks
// it always terminates with a token or an error, and that lexing the
// bytes through a one-byte-at-a-time reader, which refills the window
// on every byte, gives exactly the steps of lexing the slice.
func FuzzLexerNeverHangs(f *testing.F) {
	f.Add([]byte(`{"a": [1, true, "x"]}`))
	f.Add([]byte("\\\\\\"))
	f.Add([]byte(`"unterminated`))
	f.Fuzz(func(t *testing.T, data []byte) {
		want := lexSteps(AcquireLexerBytes(data), true)
		if last := want[len(want)-1]; last.kind != TokEOF && last.err == "" {
			t.Fatalf("lexer produced more tokens than input bytes for %q", data)
		}
		got := lexSteps(AcquireLexer(iotest.OneByteReader(bytes.NewReader(data))), true)
		if d := diffSteps(got, want); d != "" {
			t.Fatalf("reader and slice lexing differ for %q: %s", data, d)
		}
	})
}

// patternReader serves data in reads whose sizes cycle through a
// pattern: a pattern byte p yields minRead+(p&0x7f)² bytes, after an
// empty (0, nil) read when its high bit is set. With eofWithData the
// last bytes arrive together with io.EOF.
type patternReader struct {
	data, pattern []byte
	minRead, i    int
	eofWithData   bool
	skipped       bool
}

func (r *patternReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	size := len(p)
	if len(r.pattern) > 0 {
		b := r.pattern[r.i%len(r.pattern)]
		if b&0x80 != 0 && !r.skipped {
			r.skipped = true
			return 0, nil
		}
		r.i, r.skipped = r.i+1, false
		size = r.minRead + int(b&0x7f)*int(b&0x7f)
	}
	n := copy(p[:min(len(p), size)], r.data)
	r.data = r.data[n:]
	if len(r.data) == 0 && r.eofWithData {
		return n, io.EOF
	}
	return n, nil
}

// grownFrom is the capacity a chunk buffer of capacity c grew out of:
// the class below c, or half of c beyond the top class.
func grownFrom(c int) int {
	if c > chunkClasses[len(chunkClasses)-1] {
		return c / 2
	}
	return chunkClasses[classFor(c)-1]
}

// FuzzChunkLinesPooled checks ChunkLinesPooled on arbitrary bytes
// repeated up to 1 MiB (so short inputs still reach every size class,
// and stay quick for the fuzzer to minimize), a chunk size taken from the input (0 for the default, 1 for a
// cut at every newline) and a read-size pattern. Chunk and read sizes
// have a floor of one 4096th of the input, which keeps a run short.
//
//   - the chunks concatenate back to the input, and they are the cuts
//     of refChunkLines replayed against the cutter's reads;
//   - a buffer grows out of a class only once a chunk has filled it, so
//     no buffer above the default chunk's class is drawn unless a chunk
//     needs one;
//   - every buffer drawn from the pool is emitted or Put back exactly
//     once.
func FuzzChunkLinesPooled(f *testing.F) {
	line := []byte(`{"a": [1, true, "x"]}` + "\n")
	f.Add([]byte("{}\n{}"), uint16(0), uint32(0), []byte(nil))
	f.Add([]byte("a\nbb\n\nccc\r\n"), uint16(3), uint32(1), []byte{0, 3, 0x85})
	f.Add([]byte("\n\n\n"), uint16(0), uint32(2), []byte{0x80})
	f.Add(line, uint16(200), uint32(64), []byte{1, 40, 7})
	f.Add(line, uint16(15000), uint32(0), []byte{0x7f, 0x90, 0x7f, 3})
	f.Add(line, uint16(15000), uint32(100<<10), []byte{0x7f, 0x40, 0x22})
	f.Add([]byte("xxxxxxxxxx"), uint16(30000), uint32(0), []byte{0x7f, 0x7f, 0x7e})
	f.Fuzz(func(t *testing.T, unit []byte, rep uint16, cb uint32, reads []byte) {
		data := bytes.Repeat(unit, min(1+int(rep), 1+(1<<20)/(1+len(unit))))
		floor := 1 + len(data)>>12
		chunkBytes := int(cb % (1 << 20))
		if chunkBytes != 0 {
			chunkBytes = max(chunkBytes, floor)
		}
		r := &traceReader{r: &patternReader{data: data, pattern: reads, minRead: floor, eofWithData: len(reads)%2 == 1}}
		pool, l := newLedger(t)
		var chunks [][]byte
		maxCap := chunkClasses[0]
		err := ChunkLinesPooled(r, chunkBytes, pool, func(b []byte) error {
			l.emitted(b)
			if len(b) == 0 {
				t.Error("empty chunk")
			}
			if cap(b) > chunkClasses[0] && len(b) < grownFrom(cap(b)) {
				t.Errorf("a %d-byte chunk sits in a %d-byte buffer, grown before the %d-byte one was full", len(b), cap(b), grownFrom(cap(b)))
			}
			maxCap = max(maxCap, cap(b))
			chunks = append(chunks, bytes.Clone(b))
			pool.Put(b)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Join(chunks, nil); !bytes.Equal(got, data) {
			t.Fatalf("chunks join to %d bytes, want the %d input bytes", len(got), len(data))
		}
		want, err := refChunkLines(data, chunkBytes, r.reads)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		sameChunks(t, "fuzz", chunks, want)
		if l.maxCap > maxCap {
			t.Errorf("drew a %d-byte buffer, but no chunk needed more than %d", l.maxCap, maxCap)
		}
		l.balanced("fuzz")
	})
}

// FuzzLineCutterWorkers drives a LineCutter the way the map-reduce
// engine's workers pull from it: up to eight simulated workers each
// take a chunk, then, in an order taken from the input, hand it back
// through Next as they take their next one, until every worker has
// seen the end. Input, chunk and read sizes are drawn as in
// FuzzChunkLinesPooled.
//
//   - the chunks, in the order Next cut them, are the reference cuts of
//     refChunkLines replayed against the cutter's reads, and the base
//     offset the engine would give each (the bytes cut before it)
//     matches;
//   - a chunk a worker holds is never touched by later cuts;
//   - at most one buffer per worker is out of the pool, plus the one a
//     chunk grows out of, and every buffer is back once all workers
//     have handed theirs back.
func FuzzLineCutterWorkers(f *testing.F) {
	line := []byte(`{"a": [1, true, "x"]}` + "\n")
	f.Add([]byte("{}\n{}"), uint16(0), uint32(0), []byte(nil), uint8(0), []byte(nil))
	f.Add([]byte("a\nbb\n\nccc\r\n"), uint16(3), uint32(1), []byte{0, 3, 0x85}, uint8(2), []byte{1, 0, 2})
	f.Add(line, uint16(200), uint32(64), []byte{1, 40, 7}, uint8(3), []byte{3, 1, 4, 1, 5})
	f.Add(line, uint16(15000), uint32(0), []byte{0x7f, 0x90, 0x7f, 3}, uint8(1), []byte{0})
	f.Add(line, uint16(15000), uint32(100<<10), []byte{0x7f, 0x40, 0x22}, uint8(7), []byte{9, 2, 6, 5})
	f.Add([]byte("xxxxxxxxxx"), uint16(30000), uint32(0), []byte{0x7f, 0x7f, 0x7e}, uint8(4), []byte{2, 7})
	f.Fuzz(func(t *testing.T, unit []byte, rep uint16, cb uint32, reads []byte, workers uint8, order []byte) {
		data := bytes.Repeat(unit, min(1+int(rep), 1+(1<<20)/(1+len(unit))))
		floor := 1 + len(data)>>12
		chunkBytes := int(cb % (1 << 20))
		if chunkBytes != 0 {
			chunkBytes = max(chunkBytes, floor)
		}
		r := &traceReader{r: &patternReader{data: data, pattern: reads, minRead: floor, eofWithData: len(reads)%2 == 1}}
		pool, l := newLedger(t)
		cut := NewLineCutter(r, chunkBytes, pool)
		nw := 1 + int(workers%8)
		held := make([][]byte, nw) // the chunk each worker holds
		kept := make([][]byte, nw) // a copy of it, taken when it was cut
		active := make([]int, nw)  // the workers yet to see the end
		for w := range active {
			active[w] = w
		}
		var got [][]byte
		var bases []int64
		var base int64
		for step := 0; len(active) > 0; step++ {
			// Every worker takes its first chunk in turn; after that the
			// input picks who hands back next.
			i := step % len(active)
			if step >= nw && len(order) > 0 {
				i = int(order[step%len(order)]) % len(active)
			}
			w := active[i]
			if held[w] != nil && !bytes.Equal(held[w], kept[w]) {
				t.Fatalf("the chunk worker %d held changed before it was handed back", w)
			}
			chunk, ok, err := cut.Next(held[w])
			if err != nil {
				t.Fatal(err)
			}
			held[w], kept[w] = chunk, bytes.Clone(chunk)
			if !ok {
				active = append(active[:i], active[i+1:]...)
				continue
			}
			got = append(got, kept[w])
			bases = append(bases, base)
			base += int64(len(chunk))
		}
		want, err := refChunkLines(data, chunkBytes, r.reads)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		sameChunks(t, "workers", got, want)
		var off int64
		for i, c := range want {
			if i < len(bases) && bases[i] != off {
				t.Errorf("chunk %d has base %d, want %d", i, bases[i], off)
			}
			off += int64(len(c))
		}
		if _, ok, err := cut.Next(nil); ok || err != nil {
			t.Errorf("Next after the end = %v, %v; want the end again", ok, err)
		}
		if l.Peak() > nw+1 {
			t.Errorf("%d buffers out of the pool at once with %d workers, want at most %d", l.Peak(), nw, nw+1)
		}
		if n := l.Live(); n != 0 {
			t.Errorf("%d buffers never returned to the pool", n)
		}
	})
}

// refSpan is span a byte at a time over a slice: the index of the first
// '"', '\' or control byte at or after i, or len(data) when there is
// none, and whether a byte before it has its high bit set.
func refSpan(data []byte, i int) (int, bool) {
	high := false
	for ; i < len(data); i++ {
		c := data[i]
		if c == '"' || c == '\\' || c < 0x20 {
			break
		}
		high = high || c >= 0x80
	}
	return i, high
}

// kindSteps drains l with NextKind, recording the kind, the error and
// the offset after each call, and releases l.
func kindSteps(l *Lexer) []lexStep {
	defer l.Release()
	var out []lexStep
	for {
		k, _, err := l.NextKind()
		s := lexStep{kind: k, at: l.Offset()}
		if err != nil {
			s.err = err.Error()
		}
		out = append(out, s)
		if err != nil || k == TokEOF || len(out) > int(s.at)+1 {
			return out
		}
	}
}

// FuzzWordScanReads checks the word-at-a-time string scanner on
// arbitrary input, served through a reader whose read sizes the input
// picks (the patternReader of FuzzChunkLinesPooled, one byte at least):
//
//   - from every start index, span stops where a byte-at-a-time scan
//     stops and reports the same high-bit flag, so a word that ends
//     mid-escape or mid-rune is scanned as bytes are;
//   - lexing through the reader gives exactly the slice lexer's tokens,
//     errors and offsets in both string modes, so a string straddling
//     a refill scans as it does in one window;
//   - NextKind reads the kinds, errors and offsets Next reads, from the
//     slice and through the reader.
func FuzzWordScanReads(f *testing.F) {
	f.Add([]byte(`"abcdefg\"hijklmnop\\qrsétuv𝄞w"`), []byte{0, 1, 2, 3})
	f.Add([]byte(`["é","Abcdefgh","1234567\n","ab\/cdefghij\t"]`), []byte{2, 0x81, 1})
	f.Add([]byte("\"abcdefgh\x1f\" \"ab\x7f\xc3\xa9\xff\xfecdefghij\""), []byte{1, 1, 2})
	f.Add([]byte(`{"a":"\x"} "\u12" "\ud800A" "abc`), []byte{0})
	f.Add([]byte(`{"a":1e999} [01] -0.5e-3 123456789012345678901 1e308 tru`), []byte{3, 0})
	// NextKind's fast paths, and the tokens next to them that it leaves
	// to next.
	f.Add([]byte(`0 -0 01 7 1.5 1e3 1E+3 null nul`), []byte{0})
	f.Add([]byte(`[nulx, true, truex] false "a\"b" "é" "abcdefghij"`), []byte{1, 2})
	f.Add([]byte("\"a\x01b\" \"\xff\xfe\" 12,"), []byte{0x81, 1})
	f.Add(append(append(append([]byte("["), bytes.Repeat([]byte("9"), 308)...), ", 1"...), append(bytes.Repeat([]byte("0"), 308), ']')...), []byte{5, 3})
	f.Add(append(bytes.Repeat([]byte("9"), 309), ' '), []byte{7})
	f.Fuzz(func(t *testing.T, data, reads []byte) {
		for i := 0; i <= len(data); i++ {
			l := Lexer{data: data, pos: i}
			high, err := l.span(0)
			end, wantHigh := refSpan(data, i)
			if l.pos != end || (err == nil) != (end < len(data)) || (err == nil && high != wantHigh) {
				t.Fatalf("span from %d of %q: stops at %d (high %v, err %v), want %d (high %v)", i, data, l.pos, high, err, end, wantHigh)
			}
		}
		reader := func() io.Reader {
			return &patternReader{data: data, pattern: reads, minRead: 1, eofWithData: len(reads)%2 == 1}
		}
		for _, raw := range []bool{false, true} {
			want := lexSteps(AcquireLexerBytes(data), raw)
			if d := diffSteps(lexSteps(AcquireLexer(reader()), raw), want); d != "" {
				t.Fatalf("reader and slice lexing differ for %q, raw=%v: %s", data, raw, d)
			}
			if raw {
				continue
			}
			kinds := make([]lexStep, len(want))
			for i, s := range want {
				kinds[i] = lexStep{kind: s.kind, err: s.err, at: s.at}
			}
			if d := diffSteps(kindSteps(AcquireLexerBytes(data)), kinds); d != "" {
				t.Fatalf("NextKind and Next differ for %q: %s", data, d)
			}
			if d := diffSteps(kindSteps(AcquireLexer(reader())), kinds); d != "" {
				t.Fatalf("NextKind through the reader and Next differ for %q: %s", data, d)
			}
		}
	})
}
