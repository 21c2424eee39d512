package jsontext_test

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/jsontext"
)

// benchData renders a realistic NDJSON buffer: the twitter generator has
// the key-repetition profile the lexer's string cache targets (the same
// few dozen keys on every record).
func benchData(b *testing.B) []byte {
	b.Helper()
	g, err := dataset.New("twitter")
	if err != nil {
		b.Fatal(err)
	}
	return dataset.NDJSON(g, 1000, 1)
}

// lexInputs point a lexer at the two inputs it reads: a slice lexed in
// place, as the map phase lexes its chunks, and a reader refilling the
// window, as FromReader streams.
var lexInputs = []struct {
	name  string
	reset func(l *jsontext.Lexer, data []byte)
}{
	{"slice", func(l *jsontext.Lexer, data []byte) { l.ResetBytes(data) }},
	{"reader", func(l *jsontext.Lexer, data []byte) { l.Reset(bytes.NewReader(data)) }},
}

// drain lexes every token of l.
func drain(b *testing.B, l *jsontext.Lexer) {
	for {
		tok, err := l.Next()
		if err != nil {
			b.Fatal(err)
		}
		if tok.Kind == jsontext.TokEOF {
			return
		}
	}
}

// BenchmarkLexNDJSON drains the token stream of a realistic NDJSON
// buffer through a fresh lexer per pass, from each input kind.
// Allocations per op are dominated by string tokens; the lexer-level
// string cache exists to flatten exactly this number.
func BenchmarkLexNDJSON(b *testing.B) {
	data := benchData(b)
	for _, in := range lexInputs {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := new(jsontext.Lexer)
				in.reset(l, data)
				drain(b, l)
			}
		})
	}
}

// BenchmarkLexNDJSONPooled is BenchmarkLexNDJSON through the lexer pool,
// with the window, scratch and string cache carried over between
// passes: on a slice, the per-chunk cost the map phase pays.
func BenchmarkLexNDJSONPooled(b *testing.B) {
	data := benchData(b)
	for _, in := range lexInputs {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l := jsontext.AcquireLexerBytes(nil)
				in.reset(l, data)
				drain(b, l)
				l.Release()
			}
		})
	}
}
