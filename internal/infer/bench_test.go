package infer_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/intern"
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
