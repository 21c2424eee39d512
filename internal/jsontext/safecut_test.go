package jsontext_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"

	jsi "repro"
	"repro/internal/jsontext"
)

// FuzzSafeCut checks the cut rule every Source shares.
//
//   - On any input the parser accepts, the rule accepts exactly the
//     newlines that sit at depth zero outside strings with a value after
//     them: from every index, NextSafeCut finds the first newline the
//     old byte scanner (RefDepths) calls a boundary.
//   - On any input, FromBytes, FromReader (whole, and in halved reads),
//     FromChunkedReader and FromFile at a ChunkBytes of 8 to 64 agree on
//     acceptance and, when they accept, on the schema and Records. At
//     these sizes a value longer than 16 chunks spills, so the stream
//     decoding of a spilled chunk is checked too.
func FuzzSafeCut(f *testing.F) {
	for _, s := range []string{
		"{\n  \"a\": 1,\n  \"b\": [true, \"x\\\"]\\n\"]\n}\n{\"a\": 2}\n",
		"[\n1\n,\n2\n]\n[\n]\nfalse\n\"s\"\n",
		"{\"a\":\n[\n{\"b\" : null}\n]\n}\n\n  \n{}\n",
		"1\n2\n3\n[1,\n2]\n",
		"{\"a\": 1}\n{broken\n{\"a\": 2}\n",
		"[1\n2]\n",
		"{\"k\": \"x\"}\n" + "[\n" + string(bytes.Repeat([]byte("  {\"id\": 1, \"s\": \"abc\"},\n"), 60)) + "  {}\n]\n{\"k\": \"y\"}\n",
	} {
		f.Add([]byte(s), uint8(0))
		f.Add([]byte(s), uint8(31))
	}
	f.Fuzz(func(t *testing.T, data []byte, cb uint8) {
		if _, err := jsontext.ParseAll(data); err == nil && len(data) <= 4<<10 {
			depth := jsontext.RefDepths(data)
			for from := 0; from <= len(data); from++ {
				want := -1
				for i := from; i < len(data) && want < 0; i++ {
					if data[i] == '\n' && depth[i] && len(bytes.TrimLeft(data[i:], " \t\r\n")) > 0 {
						want = i + 1
					}
				}
				if got := jsontext.NextSafeCut(data, from); got != want {
					t.Fatalf("%q from %d: cut at %d, the depth scan at %d", data, from, got, want)
				}
			}
		}
		opts := jsi.Options{Workers: 2, ChunkBytes: 8 + int(cb%57)}
		ctx := context.Background()
		want, wantSt, wantErr := jsi.Infer(ctx, jsi.FromBytes(data), opts)
		path := filepath.Join(t.TempDir(), "in.json")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		for name, src := range map[string]jsi.Source{
			"FromReader":        jsi.FromReader(bytes.NewReader(data)),
			"FromReader/half":   jsi.FromReader(iotest.HalfReader(bytes.NewReader(data))),
			"FromChunkedReader": jsi.FromChunkedReader(bytes.NewReader(data)),
			"FromFile":          jsi.FromFile(path),
		} {
			got, st, err := jsi.Infer(ctx, src, opts)
			switch {
			case (err != nil) != (wantErr != nil):
				t.Fatalf("%s over %q at ChunkBytes %d: err %v, FromBytes err %v", name, data, opts.ChunkBytes, err, wantErr)
			case err == nil && (got.String() != want.String() || st.Records != wantSt.Records):
				t.Fatalf("%s over %q at ChunkBytes %d: %s (%d records), FromBytes %s (%d records)",
					name, data, opts.ChunkBytes, got, st.Records, want, wantSt.Records)
			}
		}
	})
}
