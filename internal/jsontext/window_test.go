package jsontext

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/dataset"
)

// lexStep is everything a caller can observe of one Next call.
type lexStep struct {
	kind   TokenKind
	str    string
	bytes  string
	num    uint64
	offset int64
	err    string
	// at is Offset() after the call.
	at int64
}

// lexSteps drains l, copying each token's Bytes before the next call
// as the Token contract requires, and releases l. The last step is the
// end of input or an error unless the lexer got stuck.
func lexSteps(l *Lexer, raw bool) []lexStep {
	defer l.Release()
	l.RawStrings(raw)
	var out []lexStep
	for {
		tok, err := l.Next()
		s := lexStep{kind: tok.Kind, str: tok.Str, bytes: string(tok.Bytes), num: math.Float64bits(tok.Num), offset: tok.Offset, at: l.Offset()}
		if err != nil {
			s.err = err.Error()
		}
		out = append(out, s)
		// Every token but the last consumes input, so a lexer with more
		// tokens than bytes consumed is stuck: stop it.
		if err != nil || tok.Kind == TokEOF || len(out) > int(s.at)+1 {
			return out
		}
	}
}

// readerKinds wrap the input stream the ways testing/iotest can.
var readerKinds = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"reader", func(r io.Reader) io.Reader { return r }},
	{"onebyte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"dataerr", iotest.DataErrReader},
}

// diffSteps reports the first difference between two step lists.
func diffSteps(got, want []lexStep) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("step %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("got %d steps, want %d", len(got), len(want))
	}
	return ""
}

// windowInputs are the inputs the differential test lexes: every
// generator's NDJSON, tokens longer than the reader window, and escapes,
// surrogate pairs, lone surrogates the lexer steps back over and
// numbers straddling the first refill at every offset.
func windowInputs() map[string][]byte {
	in := map[string][]byte{}
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			panic(err)
		}
		in["gen/"+name] = dataset.NDJSON(g, 60, 5)
	}
	long := strings.Repeat("x", windowSize+windowSize/2)
	in["long/plain"] = []byte(`{"s": "` + long + `", "n": 1}`)
	in["long/escaped"] = []byte(`["` + long + `\n` + long + `"]`)
	in["long/number"] = []byte(`[1` + strings.Repeat("0", windowSize+7) + `.5e-3, 2]`)
	in["unterminated"] = []byte(`{"a": "abc`)
	straddlers := []string{`"éé\"x"`, `"𝄞!"`, `"\ud834x"`, `"\ud834\u0041"`, `"\ud834\n"`, `-12.5e+3`, `0.25`, `123456789012345678901`, `true`, `null`}
	for _, tok := range straddlers {
		for k := 0; k <= len(tok); k++ {
			// The token itself across the boundary, after whitespace.
			pad := strings.Repeat(" ", windowSize-k)
			in[fmt.Sprintf("straddle/%s/%d", tok, k)] = []byte(pad + tok + ` [` + tok + `]`)
			// Inside a string that began before the boundary.
			if tok[0] == '"' {
				body := strings.Repeat("a", windowSize-k-1)
				in[fmt.Sprintf("instring/%s/%d", tok, k)] = []byte(`"` + body + tok[1:] + ` 7`)
			}
		}
	}
	return in
}

// TestLexerReaderMatchesSlice lexes every input from the slice and
// through each reader kind, in both string modes: kinds, strings,
// bytes, numbers, offsets and errors must be identical.
func TestLexerReaderMatchesSlice(t *testing.T) {
	for name, data := range windowInputs() {
		for _, raw := range []bool{false, true} {
			want := lexSteps(AcquireLexerBytes(data), raw)
			for _, rk := range readerKinds {
				got := lexSteps(AcquireLexer(rk.wrap(bytes.NewReader(data))), raw)
				if d := diffSteps(got, want); d != "" {
					t.Fatalf("%s, %s, raw=%v: %s", name, rk.name, raw, d)
				}
			}
		}
	}
}

// stuckReader never makes progress.
type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }

// TestLexerReaderFailures cuts a document at every byte and ends the
// stream there with a read error, or with a reader that returns
// (0, nil) forever. The reader lexers must produce exactly the slice
// lexer's steps over the prefix, except at the cut: where the slice
// reaches the end of input, reports a token unterminated, or ends a
// number there (which might have gone on), the reader reports the read
// error itself — io.ErrNoProgress for the stuck reader.
func TestLexerReaderFailures(t *testing.T) {
	doc := `{"k": "vé𝄞", "n": -1.5e+2, "big": 12345678901234567890, "a": [true, false, null, {}], "z": 0}` + "\n"
	boom := errors.New("boom")
	for cut := 0; cut <= len(doc); cut++ {
		prefix := []byte(doc[:cut])
		for _, fail := range []struct {
			name string
			err  error
			tail func() io.Reader
		}{
			{"error", boom, func() io.Reader { return iotest.ErrReader(boom) }},
			{"stuck", io.ErrNoProgress, func() io.Reader { return stuckReader{} }},
		} {
			want := lexSteps(AcquireLexerBytes(prefix), true)
			last := len(want) - 1
			if last > 0 && want[last].kind == TokEOF && want[last-1].kind == TokNum && want[last-1].at == int64(cut) {
				last--
			}
			want = append(want[:last], lexStep{err: fail.err.Error(), at: want[last].at})
			for _, rk := range readerKinds {
				if fail.name == "stuck" && rk.name == "dataerr" {
					continue // DataErrReader itself spins on (0, nil)
				}
				r := rk.wrap(io.MultiReader(bytes.NewReader(prefix), fail.tail()))
				got := lexSteps(AcquireLexer(r), true)
				if d := diffSteps(got, want); d != "" {
					t.Fatalf("cut %d, %s, %s: %s", cut, fail.name, rk.name, d)
				}
			}
		}
	}
}

// TestParseBytesAllocation pins ParseBytes to the slice it is given: a
// small value allocates its tree, not a reader buffer.
func TestParseBytesAllocation(t *testing.T) {
	data := []byte(`{"id": 12, "name": "abcdef", "ok": true}`)
	for i := 0; i < 10; i++ { // warm the lexer pool
		if _, err := ParseBytes(data); err != nil {
			t.Fatal(err)
		}
	}
	const calls = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		if _, err := ParseBytes(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / calls; per >= 4<<10 {
		t.Errorf("ParseBytes of %d bytes allocates %d B per call, want under 4 KiB", len(data), per)
	}
}

// failOnceReader returns head, then fails once with err, then returns
// tail: a reader whose error a lexer must not read past.
type failOnceReader struct {
	parts [][]byte
	err   error
	calls int
}

func (r *failOnceReader) Read(p []byte) (int, error) {
	r.calls++
	switch r.calls {
	case 1:
		return copy(p, r.parts[0]), nil
	case 2:
		return 0, r.err
	case 3:
		return copy(p, r.parts[1]), nil
	}
	return 0, io.EOF
}

// TestLexerKeepsReadErrorInsideToken cuts a number, a string and a
// literal with a read error that the reader would follow with the
// token's rest. The lexer must report the read error itself, at the
// cut token, and again on every later call, never the bytes after it.
func TestLexerKeepsReadErrorInsideToken(t *testing.T) {
	boom := errors.New("boom")
	for _, c := range []struct{ head, tail string }{
		{`12`, "345\n"},
		{`["ab`, "c\"]\n"},
		{`[tr`, "ue]\n"},
	} {
		r := &failOnceReader{parts: [][]byte{[]byte(c.head), []byte(c.tail)}, err: boom}
		l := AcquireLexer(r)
		var kinds []TokenKind
		var err error
		for err == nil {
			var tok Token
			tok, err = l.Next()
			if err == nil {
				if tok.Kind == TokEOF {
					break
				}
				kinds = append(kinds, tok.Kind)
			}
		}
		if !errors.Is(err, boom) {
			t.Errorf("%q|boom|%q: tokens %v, err %v; want the read error", c.head, c.tail, kinds, err)
		}
		for _, k := range kinds {
			if k != TokBeginArray {
				t.Errorf("%q|boom|%q: the cut token came back as %v", c.head, c.tail, k)
			}
		}
		if _, again := l.Next(); !errors.Is(again, boom) {
			t.Errorf("%q|boom|%q: next call after the read error returned %v", c.head, c.tail, again)
		}
		if r.calls != 2 {
			t.Errorf("%q|boom|%q: reader called %d times, want 2 (never after the error)", c.head, c.tail, r.calls)
		}
		l.Release()
	}
}
