package infer

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/jsontext"
	"repro/internal/types"
)

// matchCovers are the covers FuzzMatcherAgreesWithDecoder matches
// against: for each generator, the fusion of its first one, two and
// four records, and the fusion of a few hand-written records whose
// scalars sit where the seeds put malformed ones.
func matchCovers(tb testing.TB) []types.Type {
	var sets [][]byte
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			tb.Fatal(err)
		}
		sets = append(sets, dataset.NDJSON(g, 4, 3))
	}
	sets = append(sets, []byte(`{"a": 1, "b": "x", "c": [true, null]}`+"\n"+`{"a": 2.5, "d": {"e": [1, "y"]}}`+"\n"+`[1, "z", {}]`))
	var covers []types.Type
	for _, data := range sets {
		ts, err := InferAll(data)
		if err != nil {
			tb.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			covers = append(covers, fusion.FuseAll(ts[:min(n, len(ts))]))
		}
	}
	return covers
}

// smallReads serves at most n bytes per Read, so the lexer refills its
// window every n bytes, inside keys, values and separators alike.
type smallReads struct {
	r io.Reader
	n int
}

func (s smallReads) Read(p []byte) (int, error) { return s.r.Read(p[:min(len(p), s.n)]) }

// FuzzMatcherAgreesWithDecoder checks Absorb against Next on arbitrary
// input and a cover the input picks: whenever Absorb reads the next
// value as a member, a fresh decoder's Next over the same bytes types
// it without error, ends at the same offset, and gives a type with the
// size and hash Absorb reported; whenever Absorb declines, the stream
// has not moved. AbsorbSize, run alongside on a decoder of its own,
// gives Absorb's verdict and size at every value. Absorb runs over the
// slice and through a reader whose read size the input picks, and must
// give the same verdicts both ways: the pinned value survives every
// refill.
func FuzzMatcherAgreesWithDecoder(f *testing.F) {
	covers := matchCovers(f)
	for i, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			f.Fatal(err)
		}
		// Three records of the four whose fusion is cover 3i+2.
		f.Add(dataset.NDJSON(g, 3, 3), uint8(3*i+2), uint8(5*i))
	}
	for i, doc := range []string{
		`{"a": 1e999, "b": "x"}`, `{"a": 1e308, "b": "x"}`, `{"a": -1e-999}`,
		`{"a": 01}`, `{"a": 1, "b": "\x"}`, `{"a": 1, "b": "\u12"}`,
		`{"a": 1, "b": "` + "\x01" + `"}`, `{"a": 1, "b": "` + "\xff" + `"}`,
		`{"a": 1, "a": 2}`, `{"a": 1, "b": "x", "c": [tru]}`, `[1, "z", {}]`, `[1, "z", {},]`,
		`{"a" : 1, "b"` + "\n\t" + `: "x"}`,
	} {
		f.Add([]byte(doc+"\n"+doc), uint8(len(covers)-1), uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, pick, reads uint8) {
		cover := covers[int(pick)%len(covers)]
		want := absorbAgrees(t, NewBytesDecoder(data, jsontext.Options{}), NewBytesDecoder(data, jsontext.Options{}), data, cover)
		r := smallReads{bytes.NewReader(data), 1 + int(reads%32)}
		sr := smallReads{bytes.NewReader(data), r.n}
		if got := absorbAgrees(t, NewDecoder(r, jsontext.Options{}), NewDecoder(sr, jsontext.Options{}), data, cover); got != want {
			t.Fatalf("%d-byte reads of %q: Absorb verdicts %s, over the slice %s", r.n, data, got, want)
		}
	})
}

// absorbAgrees reads data's values off abs, offering each to Absorb
// first, and off sz in step, offering each to AbsorbSize; it checks
// that both give the same verdict and size, checks every member Absorb
// reports against Next, and returns the offsets of the values Absorb
// took and declined.
func absorbAgrees(t *testing.T, abs, sz *Decoder, data []byte, cover types.Type) string {
	defer abs.Release()
	defer sz.Release()
	var verdicts strings.Builder
	for {
		start := abs.Offset()
		size, hash, ok := abs.Absorb(cover)
		fmt.Fprintf(&verdicts, "%d:%v ", start, ok)
		if sizeOnly, okSize := sz.AbsorbSize(cover); okSize != ok || sizeOnly != size || sz.Offset() != abs.Offset() {
			t.Fatalf("value at offset %d of %q: AbsorbSize gives %v, size %d, ending at %d; Absorb %v, size %d, ending at %d",
				start, data, okSize, sizeOnly, sz.Offset(), ok, size, abs.Offset())
		}
		if !ok {
			if abs.Offset() != start {
				t.Fatalf("Absorb declined at offset %d of %q but moved to %d", start, data, abs.Offset())
			}
			_, err := abs.Next()
			if _, serr := sz.Next(); (serr != nil) != (err != nil) {
				t.Fatalf("value at offset %d of %q: Next errs %v on one decoder, %v on the other", start, data, err, serr)
			}
			if err != nil {
				return verdicts.String()
			}
			continue
		}
		dec := NewBytesDecoder(data[start:], jsontext.Options{})
		typ, err := dec.Next()
		end := start + dec.Offset()
		dec.Release()
		if err != nil {
			t.Fatalf("Absorb accepted the value at offset %d of %q, Next rejects it: %v", start, data, err)
		}
		if end != abs.Offset() || size != typ.Size() || hash != types.Hash(typ) {
			t.Fatalf("value at offset %d of %q: Absorb ends at %d with size %d, hash %#x; Next ends at %d with %s (size %d, hash %#x)",
				start, data, abs.Offset(), size, hash, end, typ, typ.Size(), types.Hash(typ))
		}
	}
}

// FuzzDecoderAgreesWithParser checks the typing decoder against the
// value parser, the two clients of the lexer's walk API that read whole
// documents: on any input, InferAll accepts exactly what ParseAll
// accepts and gives the types Infer gives the parsed values, or fails
// with the same error, message and offset alike.
func FuzzDecoderAgreesWithParser(f *testing.F) {
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(dataset.NDJSON(g, 2, 5))
	}
	for _, doc := range []string{
		`{"a": 1 "b": 2}`, `[1 2]`, // a missing ','
		`{"a" 1}`, `{"a"`, // a missing ':'
		`{1: 2}`, `{"a": 1, true: 2}`, `{"a": 1, "\q": 2}`, // a key that is not a string
		`{"a": 1, "a": 2}`, `{"a": 1, "b": {"a": 2, "a": 3}}`, // a duplicate key
		`{"a": 1,}`, `[1,]`, `[,]`, `{,}`, // a trailing comma
		`{"a": {"b": [1, `, `{`, `{"a": 1`, `{"a":`, // the end inside an object
		`[[1, {}], [`, `[`, `[1`, `[1,`, // the end inside an array
		`{"a": 1 "\x"}`, `[1 tru]`, `[1 @]`, `{"a": 1} ]`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ts, derr := InferAll(data)
		vs, perr := jsontext.ParseAll(data)
		if derr != nil || perr != nil {
			if derr == nil || perr == nil || derr.Error() != perr.Error() {
				t.Fatalf("%q: InferAll error %v, ParseAll error %v", data, derr, perr)
			}
			return
		}
		if len(ts) != len(vs) {
			t.Fatalf("%q: InferAll gives %d types, ParseAll %d values", data, len(ts), len(vs))
		}
		for i, v := range vs {
			if want := Infer(v); !types.Equal(ts[i], want) {
				t.Fatalf("%q: value %d: InferAll gives %s, Infer of the parsed value %s", data, i, ts[i], want)
			}
		}
	})
}
