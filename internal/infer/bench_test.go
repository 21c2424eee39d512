package infer_test

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/intern"
	"repro/internal/jsontext"
	"repro/internal/types"
	"repro/internal/value"
)

func benchData(b *testing.B, name string) []byte {
	b.Helper()
	g, err := dataset.New(name)
	if err != nil {
		b.Fatal(err)
	}
	return dataset.NDJSON(g, 1000, 1)
}

// BenchmarkInferAll measures the plain per-record decoding path: one
// fresh type tree per record, no interning.
func BenchmarkInferAll(b *testing.B) {
	data := benchData(b, "twitter")
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.InferAll(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDedupAll measures the hash-consing path: records decode into
// a shared intern table and only the multiset of distinct types is
// produced. After warm-up every record's nodes hit the table, so the
// per-record allocation count collapses.
func BenchmarkDedupAll(b *testing.B) {
	data := benchData(b, "twitter")
	tab := intern.NewTable()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.DedupAllWith(data, tab, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalkMember walks each generator's records against their own
// fused type, the work the map stage does for a record the running
// schema already covers: every record is a member, read once from the
// slice, and builds nothing.
func BenchmarkWalkMember(b *testing.B) { benchWalkMember(b, nil) }

// BenchmarkWalkMemberShuffled is BenchmarkWalkMember with each object's
// keys listed in a random order, so that the walk's prediction of the
// next key mostly misses.
func BenchmarkWalkMemberShuffled(b *testing.B) { benchWalkMember(b, rand.New(rand.NewSource(1))) }

// benchWalkMember runs BenchmarkWalkMember on records whose keys r
// shuffles (nil: as generated).
func benchWalkMember(b *testing.B, r *rand.Rand) {
	for _, name := range dataset.Names() {
		data := benchData(b, name)
		ts, err := infer.InferAll(data)
		if err != nil {
			b.Fatal(err)
		}
		if r != nil {
			data = shuffleKeys(b, data, r)
		}
		var o fusion.Options
		cover := types.Type(types.Empty)
		for _, t := range ts {
			cover = o.Fuse(cover, o.Simplify(t))
		}
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec := infer.NewBytesDecoder(data, jsontext.Options{})
				dec.SetSimplifier(o)
				for range ts {
					if t, _, _, err := dec.Walk(cover, true); t != nil || err != nil {
						b.Fatalf("a %s record at offset %d is not a member of the fused type: %v", name, dec.Offset(), err)
					}
				}
				dec.Release()
			}
		})
	}
}

// shuffleKeys rewrites the NDJSON records of data with each object's
// members in an order r draws.
func shuffleKeys(b *testing.B, data []byte, r *rand.Rand) []byte {
	var out []byte
	p := jsontext.NewParser(bytes.NewReader(data), jsontext.Options{})
	for {
		v, err := p.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			b.Fatal(err)
		}
		out = append(appendShuffled(out, v, r), '\n')
	}
}

// appendShuffled writes v as JSON, each object's members in an order r
// draws.
func appendShuffled(dst []byte, v value.Value, r *rand.Rand) []byte {
	switch vv := v.(type) {
	case *value.Record:
		fs := vv.Fields()
		dst = append(dst, '{')
		for i, j := range r.Perm(len(fs)) {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(value.AppendQuoted(dst, fs[j].Key), ':')
			dst = appendShuffled(dst, fs[j].Value, r)
		}
		return append(dst, '}')
	case value.Array:
		dst = append(dst, '[')
		for i, e := range vv {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendShuffled(dst, e, r)
		}
		return append(dst, ']')
	default:
		return value.AppendJSON(dst, v)
	}
}
