package jsontext

import (
	"bytes"
	"encoding/json"
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
