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

// A walkCover is a reference FuzzWalkAgreesWithDecoder walks against,
// with the policy it was fused under.
type walkCover struct {
	o fusion.Options
	t types.Type
}

// walkCovers are the references FuzzWalkAgreesWithDecoder walks
// against: for each generator, the fusion of its first one, two and
// four records, and the fusion of a few hand-written records whose
// scalars sit where the seeds put malformed ones, each under the
// paper's and the tuple strategy, as the map stage fuses them.
func walkCovers(tb testing.TB) []walkCover {
	var sets [][]byte
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			tb.Fatal(err)
		}
		sets = append(sets, dataset.NDJSON(g, 4, 3))
	}
	sets = append(sets, []byte(`{"a": 1, "b": "x", "c": [true, null]}`+"\n"+`{"a": 2.5, "d": {"e": [1, "y"]}}`+"\n"+`[1, "z", {}]`))
	var covers []walkCover
	for _, data := range sets {
		ts, err := InferAll(data)
		if err != nil {
			tb.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			for _, o := range []fusion.Options{{}, {Tuples: true}} {
				f := types.Type(types.Empty)
				for _, t := range ts[:min(n, len(ts))] {
					f = o.Fuse(f, o.Simplify(t))
				}
				covers = append(covers, walkCover{o, f})
			}
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

// FuzzWalkAgreesWithDecoder checks Walk against Next on arbitrary input
// and a reference the input picks. At every value both decoders fail
// alike or end at the same offset, a walk that declines included, so
// the stream stays as Next types it. The walk's size and hash are
// those of Next's type, and it reports a member exactly when
// types.Member admits the parsed value. For a non-member, its type T′
// satisfies the subtree lemma, Fuse(F, T′) = Fuse(F, Simplify(Next))
// byte for byte, and a walk with no reference gives Simplify(Next)
// itself. The walk runs over the slice and through a reader whose read
// size the input picks, and must give the same verdicts both ways.
func FuzzWalkAgreesWithDecoder(f *testing.F) {
	covers := walkCovers(f)
	for i, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			f.Fatal(err)
		}
		// Three records of the four whose fusion is cover 6i+4.
		f.Add(dataset.NDJSON(g, 3, 3), uint8(6*i+4), uint8(5*i))
	}
	for i, doc := range []string{
		`{"a": 1e999, "b": "x"}`, `{"a": 1e308, "b": "x"}`, `{"a": -1e-999}`,
		`{"a": 01}`, `{"a": 1, "b": "\x"}`, `{"a": 1, "b": "\u12"}`,
		`{"a": 1, "b": "` + "\x01" + `"}`, `{"a": 1, "b": "` + "\xff" + `"}`,
		`{"a": 1, "a": 2}`, `{"a": 1, "b": "x", "c": [tru]}`, `[1, "z", {}]`, `[1, "z", {},]`,
		`{"a" : 1, "b"` + "\n\t" + `: "x"}`,
	} {
		f.Add([]byte(doc+"\n"+doc), uint8(len(covers)-2+i%2), uint8(i))
	}
	// Arrays that collapse: records with distinct keys, whose fusion
	// grows at every step of the fold, and elements of every kind.
	for i, n := range []int{5, 17, 40} {
		elems := make([]string, n)
		for j := range elems {
			elems[j] = fmt.Sprintf(`{"k%d": %d}`, j, j)
		}
		f.Add([]byte("["+strings.Join(elems, ", ")+"]"), uint8(6*i+4), uint8(3*i))
	}
	f.Add([]byte(`[1, "a", {"a": 1}, [2, "b"], null, true, {"b": [null]}, [], 2.5, {"a": "x"}]`), uint8(len(covers)-1), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, pick, reads uint8) {
		c := covers[int(pick)%len(covers)]
		want := walkAgrees(t, NewBytesDecoder(data), data, c)
		r := smallReads{bytes.NewReader(data), 1 + int(reads%32)}
		if got := walkAgrees(t, NewDecoder(r, jsontext.Options{}), data, c); got != want {
			t.Fatalf("%d-byte reads of %q: walk verdicts %s, over the slice %s", r.n, data, got, want)
		}
	})
}

// walkAgrees walks data's values off w against the cover c, checks
// each against Next, Member and the subtree lemma, and returns the
// offsets of the values it absorbed and typed.
func walkAgrees(t *testing.T, w *Decoder, data []byte, c walkCover) string {
	next := NewBytesDecoder(data)
	bare := NewBytesDecoder(data)
	defer w.Release()
	defer next.Release()
	defer bare.Release()
	w.SetSimplifier(c.o)
	bare.SetSimplifier(c.o)
	var verdicts strings.Builder
	for {
		start := w.Offset()
		walked, size, hash, err := w.Walk(c.t, true)
		typ, nerr := next.Next()
		plain, _, _, _ := bare.Walk(nil, false)
		if err != nil || nerr != nil {
			if err == nil || nerr == nil || err.Error() != nerr.Error() {
				t.Fatalf("value at offset %d of %q: Walk errs %v, Next %v", start, data, err, nerr)
			}
			return verdicts.String()
		}
		fmt.Fprintf(&verdicts, "%d:%v ", start, walked == nil)
		if w.Offset() != next.Offset() || size != typ.Size() || hash != types.Hash(typ) {
			t.Fatalf("value at offset %d of %q: Walk ends at %d with size %d, hash %#x; Next ends at %d with %s (size %d, hash %#x)",
				start, data, w.Offset(), size, hash, next.Offset(), typ, typ.Size(), types.Hash(typ))
		}
		simple := c.o.Simplify(typ)
		if types.Compare(plain, simple) != 0 {
			t.Fatalf("value at offset %d of %q: Walk with no reference gives %s, Simplify(Next) %s", start, data, plain, simple)
		}
		v, err := jsontext.ParseBytes(data[start:w.Offset()])
		if err != nil {
			t.Fatalf("value at offset %d of %q: Next accepts it, ParseBytes rejects it: %v", start, data, err)
		}
		if member := types.Member(v, c.t); member != (walked == nil) {
			t.Fatalf("value at offset %d of %q against %s: Walk absorbs %v, Member %v", start, data, c.t, walked == nil, member)
		}
		if walked == nil {
			continue
		}
		if got, want := c.o.Fuse(c.t, walked), c.o.Fuse(c.t, simple); got.String() != want.String() || types.Compare(got, want) != 0 {
			t.Fatalf("value at offset %d of %q against %s: Fuse(F, T′) = %s, Fuse(F, Simplify(Next)) = %s", start, data, c.t, got, want)
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
