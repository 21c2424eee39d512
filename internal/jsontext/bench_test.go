package jsontext_test

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
	"repro/internal/jsontext"
)

// benchSets are the NDJSON buffers the lexer benchmarks drain: twitter
// has the key-repetition profile the lexer's string cache targets (the
// same few dozen keys on every record), nytimes long text fields, where
// string scanning dominates.
var benchSets = []string{"twitter", "nytimes"}

// benchData renders 1,000 records of the named generator as NDJSON.
func benchData(b *testing.B, name string) []byte {
	b.Helper()
	g, err := dataset.New(name)
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

// BenchmarkLexNDJSON drains the token stream of realistic NDJSON
// buffers through a fresh lexer per pass, from each input kind.
// Allocations per op are dominated by string tokens; the lexer-level
// string cache exists to flatten exactly this number.
func BenchmarkLexNDJSON(b *testing.B) {
	for _, set := range benchSets {
		data := benchData(b, set)
		for _, in := range lexInputs {
			b.Run(set+"/"+in.name, func(b *testing.B) {
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
}

// BenchmarkLexNDJSONPooled is BenchmarkLexNDJSON through the lexer pool,
// with the window, scratch and string cache carried over between
// passes: on a slice, the per-chunk cost the map phase pays.
func BenchmarkLexNDJSONPooled(b *testing.B) {
	data := benchData(b, "twitter")
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
