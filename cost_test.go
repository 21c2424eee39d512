package jsoninference_test

// Cost doubling: the bound docs/SERVING.md states for a body,
// checked as allocated bytes, which are far steadier than time on a
// shared host.

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
)

// maxDoublingRatio bounds the bytes allocated at 2n over those at n.
const maxDoublingRatio = 2.5

// allocated returns the fewest bytes run allocates in five runs. Each
// run starts with the pools emptied by two collections and runs with
// the collector off, so that every run allocates its pooled scratch
// afresh and none loses it halfway.
func allocated(t *testing.T, run func() error) uint64 {
	t.Helper()
	var best uint64
	for i := 0; i < 5; i++ {
		runtime.GC()
		runtime.GC()
		gc := debug.SetGCPercent(-1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := run()
		runtime.ReadMemStats(&after)
		debug.SetGCPercent(gc)
		if err != nil {
			t.Fatal(err)
		}
		if b := after.TotalAlloc - before.TotalAlloc; i == 0 || b < best {
			best = b
		}
	}
	return best
}

// joinN writes n items, each item(i), between open and close with sep.
func joinN(n int, open, sep, close string, item func(b *bytes.Buffer, i int)) []byte {
	var b bytes.Buffer
	b.WriteString(open)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(sep)
		}
		item(&b, i)
	}
	b.WriteString(close)
	return b.Bytes()
}

// distinctKeyArray is one array of n one-key records, no two of which
// share a key.
func distinctKeyArray(n int) []byte {
	return joinN(n, "[", ",", "]", func(b *bytes.Buffer, i int) { fmt.Fprintf(b, `{"k%d":%d}`, i, i) })
}

// recordOfRecords is the schema of one record of n one-key records, no
// two of which share a key: {"k0": {"s0": 0}, "k1": {"s1": 1}, …}.
func recordOfRecords(t *testing.T, n int) *jsi.Schema {
	t.Helper()
	s, err := jsi.InferJSON(joinN(n, "{", ",", "}", func(b *bytes.Buffer, i int) { fmt.Fprintf(b, `"k%d":{"s%d":%d}`, i, i, i) }))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// dumpLayout puts the lines of NDJSON inside one array, one element
// per line, the way Wikidata publishes its dump.
func dumpLayout(ndjson []byte) []byte {
	lines := bytes.Split(bytes.TrimSuffix(ndjson, []byte("\n")), []byte("\n"))
	return append(append([]byte("[\n"), bytes.Join(lines, []byte(",\n"))...), "\n]\n"...)
}

// TestCostDoubling: on every shape below, the bytes inference
// allocates at 2n inputs, in one worker, are at most 2.5 times those at
// n, the slope of O(n log n) with room for noise. An O(n²) step, such
// as folding a long array's elements or a wide record's fields into one
// growing accumulator, allocates about 4 times as much per doubling and
// fails. The shapes are one long array of distinct-key records under
// every policy and through InferJSON, key abstraction and map fusion
// over a record of distinct-key records, the Wikidata dump layout, and
// four shapes that never folded that way: one wide object, distinct
// keys per line, distinct-key arrays in each line and 64 tags. One
// shape is a snapshot rather than records: n table entries, each two
// refs to the one before, which spell a tree of 2ⁿ nodes and must be
// rejected at the cost of reading the document.
func TestCostDoubling(t *testing.T) {
	infer := func(opts jsi.Options, data func(n int) []byte) func(t *testing.T, n int) func() error {
		opts.Workers = 1
		return func(_ *testing.T, n int) func() error {
			in := data(n)
			return func() error {
				_, _, err := jsi.Infer(context.Background(), jsi.FromBytes(in), opts)
				return err
			}
		}
	}
	wikidata, err := dataset.New("wikidata")
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name  string
		n     int
		input func(t *testing.T, n int) func() error
	}{
		{"array of distinct-key records/paper", 512, infer(jsi.Options{}, distinctKeyArray)},
		{"array of distinct-key records/tuples", 512, infer(jsi.Options{PreserveTupleArrays: true}, distinctKeyArray)},
		{"array of distinct-key records/tagged", 512, infer(jsi.Options{TaggedUnions: true}, distinctKeyArray)},
		{"array of distinct-key records/InferJSON", 512, func(_ *testing.T, n int) func() error {
			in := distinctKeyArray(n)
			return func() error {
				_, err := jsi.InferJSON(in)
				return err
			}
		}},
		{"record of distinct-key records/AbstractKeys", 512, func(t *testing.T, n int) func() error {
			s := recordOfRecords(t, n)
			return func() error {
				s.AbstractKeys(0)
				return nil
			}
		}},
		{"record of distinct-key records/fused into a map", 512, func(t *testing.T, n int) func() error {
			m, err := jsi.ParseSchema("{*: {a: Num}}")
			if err != nil {
				t.Fatal(err)
			}
			s := recordOfRecords(t, n)
			return func() error {
				m.Fuse(s)
				return nil
			}
		}},
		{"wikidata dump layout", 256, infer(jsi.Options{}, func(n int) []byte {
			return dumpLayout(dataset.NDJSON(wikidata, n, 3))
		})},
		{"wide object", 2048, infer(jsi.Options{}, func(n int) []byte {
			return joinN(n, "{", ",", "}", func(b *bytes.Buffer, i int) { fmt.Fprintf(b, `"k%d":%d`, i, i) })
		})},
		{"distinct keys per line", 512, infer(jsi.Options{}, func(n int) []byte {
			return joinN(n, "", "\n", "\n", func(b *bytes.Buffer, i int) { fmt.Fprintf(b, `{"k%d":%d}`, i, i) })
		})},
		{"distinct-key arrays in each line", 256, infer(jsi.Options{}, func(n int) []byte {
			return joinN(n, "", "\n", "\n", func(b *bytes.Buffer, i int) {
				b.Write(joinN(8, `{"a":[`, ",", "]}", func(b *bytes.Buffer, j int) { fmt.Fprintf(b, `{"k%d_%d":1}`, i, j) }))
			})
		})},
		{"64 tags", 512, infer(jsi.Options{TaggedUnions: true}, func(n int) []byte {
			return joinN(n, "", "\n", "\n", func(b *bytes.Buffer, i int) { fmt.Fprintf(b, `{"type":"t%d","f%d":%d}`, i%64, i%64, i) })
		})},
		{"nested refs/LoadRepository", 512, func(_ *testing.T, n int) func() error {
			snap := nestedRefs(n, n-1)
			return func() error {
				if _, err := jsi.LoadRepository(bytes.NewReader(snap)); err == nil {
					return fmt.Errorf("a snapshot of %d nested refs loaded", n)
				}
				return nil
			}
		}},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) {
			at, at2 := allocated(t, s.input(t, s.n)), allocated(t, s.input(t, 2*s.n))
			ratio := float64(at2) / float64(at)
			t.Logf("n=%d: %d B, 2n: %d B, ×%.2f", s.n, at, at2, ratio)
			if ratio > maxDoublingRatio {
				t.Errorf("allocation grew ×%.2f from n=%d to 2n (%d B to %d B), want at most ×%.1f", ratio, s.n, at, at2, maxDoublingRatio)
			}
		})
	}
}

// maxExportAllocRatio bounds the bytes plain JSONSchema allocates over
// the document's length: the document itself, allocated once at its
// final length, plus the shape numbering and the table of rendered
// repeats.
const maxExportAllocRatio = 1.05

// TestJSONSchemaAllocatesDocument: on the schema of 1,500 wikidata
// records, whose repeats the export copies (docs/PERFORMANCE.md, "JSON
// Schema export"), plain JSONSchema allocates at most 1.05 times the
// document's length.
func TestJSONSchemaAllocatesDocument(t *testing.T) {
	g, err := dataset.New("wikidata")
	if err != nil {
		t.Fatal(err)
	}
	s, _, err := jsi.Infer(context.Background(), jsi.FromBytes(dataset.NDJSON(g, 1500, 1)), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := s.JSONSchema()
	if err != nil {
		t.Fatal(err)
	}
	got := allocated(t, func() error { _, err := s.JSONSchema(); return err })
	if limit := uint64(maxExportAllocRatio * float64(len(doc))); got > limit {
		t.Errorf("JSONSchema allocated %d bytes for a %d-byte document, above %.2f× (%d)", got, len(doc), maxExportAllocRatio, limit)
	}
	t.Logf("JSONSchema allocated %d bytes for a %d-byte document (%.4f×)", got, len(doc), float64(got)/float64(len(doc)))
}
