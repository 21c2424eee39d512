package jsontext

import (
	"bytes"
	"strings"
	"testing"
	"testing/iotest"
)

// fastPathCases are the tokens NextKind's fast path reads or declines:
// integers it reads next to numbers it leaves to next, literals whole
// and cut short, strings with and without escapes, with a control byte
// and with invalid UTF-8.
var fastPathCases = []string{
	`0`, `-0`, `01`, `7`, `1234567890`, `1.5`, `1e3`, `1E+3`,
	strings.Repeat("9", maxPlainNumber), "1" + strings.Repeat("0", maxPlainNumber), strings.Repeat("9", maxPlainNumber+1),
	`null`, `nul`, `nulx`, `true`, `truex`, `false`, `fals`,
	`"abc"`, `""`, `"a\"b"`, `"é"`, "\"a\x01b\"", "\"\xff\xfe\"", `"abcdefghijklmnop"`,
}

// kindOffsetSteps drains l with NextKind as kindSteps does, recording
// the offset NextKind returns too.
func kindOffsetSteps(l *Lexer) []lexStep {
	defer l.Release()
	var out []lexStep
	for {
		k, off, err := l.NextKind()
		s := lexStep{kind: k, offset: off, at: l.Offset()}
		if err != nil {
			s.err, s.offset = err.Error(), 0
		}
		out = append(out, s)
		if err != nil || k == TokEOF || len(out) > int(s.at)+1 {
			return out
		}
	}
}

// nextKindSteps drains l with Next, keeping what NextKind reports.
func nextKindSteps(l *Lexer) []lexStep {
	steps := lexSteps(l, false)
	for i, s := range steps {
		steps[i] = lexStep{kind: s.kind, offset: s.offset, err: s.err, at: s.at}
		if s.err != "" {
			steps[i].offset = 0
		}
	}
	return steps
}

// TestNextKindFastPaths checks NextKind against Next on each fast-path
// case, alone, after whitespace, inside an array and followed by a
// comma, each cut at every byte: the same kinds, offsets, errors and
// ends, from a slice and through a reader that serves one byte at a
// time, so that no token lies whole in the window.
func TestNextKindFastPaths(t *testing.T) {
	for _, c := range fastPathCases {
		for _, doc := range []string{c, " \n\t" + c, "[" + c + "]", c + ",", c + " " + c} {
			for k := 0; k <= len(doc); k++ {
				in := []byte(doc[:k])
				want := nextKindSteps(AcquireLexerBytes(in))
				if d := diffSteps(kindOffsetSteps(AcquireLexerBytes(in)), want); d != "" {
					t.Fatalf("NextKind and Next differ on %q: %s", in, d)
				}
				if d := diffSteps(kindOffsetSteps(AcquireLexer(iotest.OneByteReader(bytes.NewReader(in)))), want); d != "" {
					t.Fatalf("NextKind through a one-byte reader and Next differ on %q: %s", in, d)
				}
			}
		}
	}
}

// A keyStep is what a caller observes of reading one member name: the
// name, its offset, whether it was predicted, the error and the offset
// after the read.
type keyStep struct {
	key       string
	off, at   int64
	predicted bool
	end       bool
	err       string
}

// keySteps reads the members of the object at the start of l, each
// name predicted to be the next of keys (cycling) when predict is set
// and the key is Predictable, and each value skipped, and releases l.
// A prediction that fails must consume nothing.
func keySteps(t *testing.T, l *Lexer, keys []string, predict bool) []keyStep {
	t.Helper()
	defer l.Release()
	if tok, err := l.Next(); err != nil || tok.Kind != TokBeginObject {
		t.Fatalf("no object: %v, %v", tok.Kind, err)
	}
	var out []keyStep
	for n := 0; ; n++ {
		key := keys[n%len(keys)]
		if predict && Predictable(key) {
			before := l.Offset()
			if off, ok := l.NextKeyIs(n > 0, key); ok {
				out = append(out, keyStep{key: key, off: off, at: l.Offset(), predicted: true})
				if _, err := l.SkipValue(1); err != nil {
					return append(out, keyStep{err: err.Error(), at: l.Offset()})
				}
				continue
			}
			if l.Offset() != before {
				t.Fatalf("a missed prediction of %q consumed %d bytes", key, l.Offset()-before)
			}
		}
		kb, off, ok, err := l.NextKey(n > 0)
		s := keyStep{key: string(kb), off: off, at: l.Offset(), end: !ok}
		if err != nil {
			s.err = err.Error()
		}
		if out = append(out, s); !ok || err != nil {
			return out
		}
		if _, err := l.SkipValue(1); err != nil {
			return append(out, keyStep{err: err.Error(), at: l.Offset()})
		}
	}
}

// TestNextKeyIs checks predicted member names against NextKey on
// objects whose names the prediction matches, misses, or must never
// take: with whitespace around the ',' and the ':', names holding '"'
// or '\', an escape that spells a predicted name, invalid UTF-8, names
// cut short, and a repeated name. Every object is read from a slice and
// through a one-byte reader, whose window never holds a whole name.
// Each read must end where NextKey ends, with the same name and offset.
func TestNextKeyIs(t *testing.T) {
	for _, c := range []struct {
		doc       string
		keys      []string
		predicted int // from a slice
	}{
		{`{"a":1}`, []string{"a"}, 1},
		{`{"a":1}`, []string{"b"}, 0},
		{`{"a":1,"b":2}`, []string{"a", "b"}, 2},
		{`{ "a" : 1 , "b"	:2 ,
 "c"
:3}`, []string{"a", "b", "c"}, 3},
		{`{"b":1,"a":2}`, []string{"a", "b"}, 0},
		{`{"ab":1}`, []string{"a"}, 0},
		{`{"a":1}`, []string{"ab"}, 0},
		{`{"a\"b":1}`, []string{`a"b`}, 0},
		{`{"a\\b":1}`, []string{`a\b`}, 0},
		{`{"a\\":1}`, []string{`a\`}, 0},
		{`{"a":1,"a":2}`, []string{"a", "b"}, 1},
		{"{\"\xff\":1}", []string{"\xff"}, 0},
		{"{\"\xff\":1}", []string{"�"}, 0},
		{`{"é":1}`, []string{"é"}, 1},
		{`{"a":1,"a":2}`, []string{"a"}, 2},
		{`{"a"`, []string{"a"}, 0},
		{`{"a":`, []string{"a"}, 1},
		{`{"a":1,`, []string{"a"}, 1},
		{`{"a" 1}`, []string{"a"}, 0},
		{`{"a::1}`, []string{"a"}, 0},
		{`{"a\"":1}`, []string{"a"}, 0},
		{`{"a":1 "b":2}`, []string{"a", "b"}, 1},
		{`{"":1}`, []string{""}, 1},
	} {
		want := keySteps(t, AcquireLexerBytes([]byte(c.doc)), c.keys, false)
		got := keySteps(t, AcquireLexerBytes([]byte(c.doc)), c.keys, true)
		predicted := 0
		for i := range got {
			if got[i].predicted {
				predicted++
				got[i].predicted = false
			}
		}
		if !equalKeySteps(got, want) {
			t.Errorf("%q, names %q: predicted reads %+v, NextKey reads %+v", c.doc, c.keys, got, want)
		}
		if predicted != c.predicted {
			t.Errorf("%q, names %q: %d names predicted, want %d", c.doc, c.keys, predicted, c.predicted)
		}
		got = keySteps(t, AcquireLexer(iotest.OneByteReader(strings.NewReader(c.doc))), c.keys, true)
		for i := range got {
			got[i].predicted = false
		}
		if !equalKeySteps(got, want) {
			t.Errorf("%q, names %q through a one-byte reader: predicted reads %+v, NextKey reads %+v", c.doc, c.keys, got, want)
		}
	}
}

func equalKeySteps(a, b []keyStep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPredictable pins which names NextKeyIs may be asked for.
func TestPredictable(t *testing.T) {
	for key, want := range map[string]bool{
		"": true, "a": true, "é": true, "a b": true, "\x7f": true,
		`a"b`: false, `a\b`: false, "a\tb": false, "\x00": false, "\x1f": false, "\xff": false, "a\xc3": false,
	} {
		if got := Predictable(key); got != want {
			t.Errorf("Predictable(%q) = %v, want %v", key, got, want)
		}
	}
}

// FuzzNextKeyIs checks the predicted member name on arbitrary input and
// any Predictable name: from every index of a slice, and at every token
// of a stream served in reads whose sizes the input picks, NextKeyIs
// either consumes nothing, or ends where NextKey ends, at the same
// offset, with the name it was asked for.
func FuzzNextKeyIs(f *testing.F) {
	f.Add([]byte(`{"a":1,"b":2}`), "a", []byte{0})
	f.Add([]byte(`{ "a" : 1 , "b"	:2}`), "b", []byte{1, 2})
	f.Add([]byte(`{"a\"b":1,"a\\b":2,"a":3}`), "a", []byte{3})
	f.Add([]byte("{\"\xff\":1,\"é\":2}"), "é", []byte{0x81, 1})
	f.Add([]byte(`{"a":1,"a":2} {"abcdefghijklmnopq" :[]}`), "abcdefghijklmnopq", []byte{1, 1, 5})
	f.Add([]byte(`,"":""`), "", []byte{})
	f.Add([]byte(`{"a::1, "a\"":2}`), "a", []byte{2})
	f.Fuzz(func(t *testing.T, data []byte, key string, reads []byte) {
		if !Predictable(key) {
			return
		}
		for i := 0; i <= len(data); i++ {
			for _, later := range []bool{false, true} {
				l := Lexer{data: data, pos: i}
				off, ok := l.NextKeyIs(later, key)
				if !ok {
					if l.pos != i {
						t.Fatalf("a missed prediction of %q at %d in %q consumed up to %d", key, i, data, l.pos)
					}
					continue
				}
				ref := Lexer{data: data, pos: i}
				kb, roff, rok, err := ref.NextKey(later)
				if !rok || err != nil || string(kb) != key || roff != off || ref.pos != l.pos {
					t.Fatalf("predicted %q at %d in %q (later %v): offset %d, end %d; NextKey reads %q, offset %d, end %d, ok %v, err %v",
						key, i, data, later, off, l.pos, kb, roff, ref.pos, rok, err)
				}
			}
		}
		// Through a reader, in step with a slice lexer: at every token
		// the reader's lexer predicts the name, and the slice lexer reads
		// what it predicted, or the token, with NextKey or Next.
		l := AcquireLexer(&patternReader{data: data, pattern: reads, minRead: 1, eofWithData: len(reads)%2 == 1})
		ref := AcquireLexerBytes(data)
		defer l.Release()
		defer ref.Release()
		for step := 0; step <= len(data); step++ {
			predicted := false
			for _, later := range []bool{false, true} {
				before := l.Offset()
				off, ok := l.NextKeyIs(later, key)
				if !ok {
					if l.Offset() != before {
						t.Fatalf("a missed prediction of %q at offset %d of %q through the reader consumed up to %d", key, before, data, l.Offset())
					}
					continue
				}
				kb, roff, rok, err := ref.NextKey(later)
				if !rok || err != nil || string(kb) != key || roff != off || ref.Offset() != l.Offset() {
					t.Fatalf("predicted %q at offset %d of %q through the reader: offset %d, end %d; NextKey reads %q, offset %d, end %d, ok %v, err %v",
						key, before, data, off, l.Offset(), kb, roff, ref.Offset(), rok, err)
				}
				predicted = true
				break
			}
			if predicted {
				continue
			}
			tok, err := l.Next()
			rtok, rerr := ref.Next()
			if (err == nil) != (rerr == nil) || tok.Kind != rtok.Kind || l.Offset() != ref.Offset() {
				t.Fatalf("the reader's lexer and the slice's part at offset %d of %q: %v, %v and %v, %v", ref.Offset(), data, tok.Kind, err, rtok.Kind, rerr)
			}
			if err != nil || tok.Kind == TokEOF {
				return
			}
		}
	})
}
