package jsoninference_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	jsi "repro"
)

// TestFromChunkedReaderMatchesBytes pins the associativity guarantee
// for the streaming-chunked source: the schema and stats of a chunked
// stream equal those of the same bytes inferred in memory.
func TestFromChunkedReaderMatchesBytes(t *testing.T) {
	_, data := manyChunks(t, 500)
	opts := jsi.Options{Workers: 3, ChunkBytes: 8 << 10}
	ctx := context.Background()

	want, wantStats, err := jsi.Infer(ctx, jsi.FromBytes(data), opts)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := jsi.Infer(ctx, jsi.FromChunkedReader(bytes.NewReader(data)), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("schema = %s, want %s", got, want)
	}
	if gotStats != wantStats {
		t.Errorf("stats = %+v, want %+v", gotStats, wantStats)
	}
}

// TestFromChunkedReaderLineEndings closes the coverage gap for the two
// real-world NDJSON framing variants the chunked reader must absorb:
// CRLF line terminators (the \r is insignificant whitespace to the
// lexer, not part of any value) and a final record with no trailing
// newline at all (the chunker must flush the unterminated tail at EOF
// rather than drop it). Both must infer the same schema and record
// count as the canonical LF-terminated buffer, including across chunk
// boundaries (tiny ChunkBytes) and on both pipelines.
func TestFromChunkedReaderLineEndings(t *testing.T) {
	const n = 200
	var lf, crlf, noFinalNL bytes.Buffer
	for i := 0; i < n; i++ {
		rec := fmt.Sprintf(`{"id": %d, "tag": ["t%d"]}`, i, i%7)
		lf.WriteString(rec + "\n")
		crlf.WriteString(rec + "\r\n")
		noFinalNL.WriteString(rec)
		if i != n-1 {
			noFinalNL.WriteString("\n")
		}
	}
	ctx := context.Background()
	want, wantStats, err := jsi.Infer(ctx, jsi.FromBytes(lf.Bytes()), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		label string
		data  []byte
	}{
		{"crlf", crlf.Bytes()},
		{"no final newline", noFinalNL.Bytes()},
		{"crlf, unterminated tail", bytes.TrimSuffix(crlf.Bytes(), []byte("\r\n"))},
	} {
		opts := jsi.Options{Workers: 3, ChunkBytes: 256}
		got, gotStats, err := jsi.Infer(ctx, jsi.FromChunkedReader(bytes.NewReader(tc.data)), opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: schema = %s, want %s", tc.label, got, want)
		}
		if gotStats.Records != wantStats.Records {
			t.Errorf("%s: records = %d, want %d", tc.label, gotStats.Records, wantStats.Records)
		}
		if gotStats.Bytes != int64(len(tc.data)) {
			t.Errorf("%s: bytes = %d, want %d", tc.label, gotStats.Bytes, len(tc.data))
		}
	}
}

// TestEverySourceAcceptsMultiLineValues pins the framing contract every
// Source shares: chunks are cut only between values, so pretty-printed
// values spanning several lines, and cuts far shorter than one of them,
// give the schema FromBytes infers.
func TestEverySourceAcceptsMultiLineValues(t *testing.T) {
	data := []byte("{\n  \"a\": 1,\n  \"b\": [true]\n}\n{\n  \"a\": 2\n}\n")
	path := filepath.Join(t.TempDir(), "pretty.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := jsi.Options{ChunkBytes: 8}
	want, _, err := jsi.Infer(ctx, jsi.FromBytes(data), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		src  jsi.Source
	}{
		{"FromReader", jsi.FromReader(bytes.NewReader(data))},
		{"FromChunkedReader", jsi.FromChunkedReader(bytes.NewReader(data))},
		{"FromFile", jsi.FromFile(path)},
		{"FromFiles", jsi.FromFiles(path, path)},
	} {
		schema, _, err := jsi.Infer(ctx, tc.src, opts)
		switch {
		case err != nil:
			t.Errorf("%s rejected a multi-line value: %v", tc.name, err)
		case schema.String() != want.String():
			t.Errorf("%s: schema %s, want %s", tc.name, schema, want)
		}
	}
}

// TestReaderSpillsPrettyDocument feeds one pretty-printed array of
// more than 8 MiB, with a record on either side, through FromReader and
// FromFile. The array has no safe cut inside, so once a chunk reaches
// 16 chunk sizes the rest is decoded as a stream: both Sources type the
// input as FromBytes does, and no chunk buffer above the bound, 16 ×
// 64 KiB for FromReader and 16 × 256 KiB for FromFile, is drawn.
func TestReaderSpillsPrettyDocument(t *testing.T) {
	var b bytes.Buffer
	b.WriteString(`{"before": 1}` + "\n[\n")
	for i := 0; b.Len() < 8<<20+1; i++ {
		fmt.Fprintf(&b, "  {\n    \"id\": %d,\n    \"name\": \"item %d\",\n    \"tags\": [\n      \"a\",\n      \"b\"\n    ]\n  },\n", i, i)
	}
	b.WriteString("  {\n    \"id\": 0\n  }\n]\n" + `{"after": "x"}` + "\n")
	data := b.Bytes()
	path := filepath.Join(t.TempDir(), "pretty.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := jsi.Options{Workers: 2}
	want, wantSt, err := jsi.Infer(ctx, jsi.FromBytes(data), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		src   jsi.Source
		bound int
	}{
		{"FromReader", jsi.FromReader(bytes.NewReader(data)), 16 * 64 << 10},
		{"FromFile", jsi.FromFile(path), 16 * 256 << 10},
	} {
		maxCap := 0
		jsi.ObserveChunkPool(func(put bool, b []byte) {
			if !put {
				maxCap = max(maxCap, cap(b))
			}
		})
		got, st, err := jsi.Infer(ctx, tc.src, opts)
		jsi.ObserveChunkPool(nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.String() != want.String() || st.Records != wantSt.Records || st.Bytes != int64(len(data)) {
			t.Errorf("%s: %s, %d records, %d bytes; FromBytes %s, %d records of %d bytes", tc.name, got, st.Records, st.Bytes, want, wantSt.Records, len(data))
		}
		if maxCap > tc.bound {
			t.Errorf("%s drew a %d-byte chunk buffer, above the %d-byte bound", tc.name, maxCap, tc.bound)
		}
	}
}

// TestFromChunkedReaderCancellation cancels mid-stream and asserts a
// clean return with no leaked goroutines.
func TestFromChunkedReaderCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := jsi.Options{Workers: 2, ChunkBytes: 4 << 10, FaultInjector: cancelOnMap(cancel)}
	src := jsi.FromChunkedReader(endlessReader{record: []byte(`{"a":1}` + "\n")})
	if _, _, err := jsi.Infer(ctx, src, opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	checkNoLeakedGoroutines(t, before)
}

// TestFromChunkedReaderQuarantine: malformed records quarantine their
// chunk under OnErrorSkip instead of killing the stream.
func TestFromChunkedReaderQuarantine(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 2000; i++ {
		if i == 999 {
			buf.WriteString("{broken\n")
			continue
		}
		fmt.Fprintf(&buf, `{"id": %d}`+"\n", i)
	}
	opts := jsi.Options{ChunkBytes: 1 << 10, OnError: jsi.OnErrorSkip}
	schema, stats, err := jsi.Infer(context.Background(), jsi.FromChunkedReader(&buf), opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.QuarantinedChunks != 1 {
		t.Errorf("quarantined chunks = %d, want 1", stats.QuarantinedChunks)
	}
	if want := "{id: Num}"; schema.String() != want {
		t.Errorf("schema = %s, want %s", schema, want)
	}

	// The same stream under the default policy fails.
	buf.Reset()
	buf.WriteString(`{"id": 1}` + "\n" + "{broken\n")
	if _, _, err := jsi.Infer(context.Background(), jsi.FromChunkedReader(&buf), jsi.Options{}); err == nil {
		t.Error("default policy accepted malformed input")
	}
}

// TestDecodeErrorsSpendNoRetries: a chunk that fails to decode fails
// the same way on every attempt, so it is never retried, whatever the
// retry budget. The run fails at once under the default policy, with
// the input offset of the error, and under OnErrorSkip the chunk is
// quarantined with no retry counted, on every chunked Source.
func TestDecodeErrorsSpendNoRetries(t *testing.T) {
	data := []byte("{\"a\":1}\n{\"a\":\n")
	path := filepath.Join(t.TempDir(), "bad.ndjson")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() jsi.Source{
		"FromBytes":         func() jsi.Source { return jsi.FromBytes(data) },
		"FromChunkedReader": func() jsi.Source { return jsi.FromChunkedReader(bytes.NewReader(data)) },
		"FromFile":          func() jsi.Source { return jsi.FromFile(path) },
	}
	for name, src := range sources {
		_, _, err := jsi.Infer(context.Background(), src(), jsi.Options{Workers: 1, Retries: 5})
		if err == nil || strings.Contains(err.Error(), "attempts)") || !strings.Contains(err.Error(), "syntax error at offset 14:") {
			t.Errorf("%s: err = %v, want the syntax error at offset 14, not retried", name, err)
		}
		_, st, err := jsi.Infer(context.Background(), src(), jsi.Options{Workers: 1, Retries: 5, OnError: jsi.OnErrorSkip})
		if err != nil {
			t.Fatalf("%s under OnErrorSkip: %v", name, err)
		}
		if st.Retries != 0 || st.QuarantinedChunks != 1 {
			t.Errorf("%s under OnErrorSkip: Retries %d, QuarantinedChunks %d; want 0 and 1", name, st.Retries, st.QuarantinedChunks)
		}
	}
}

// failingReader fails after yielding some bytes, standing in for a
// network stream that drops mid-request.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestFromChunkedReaderFeedError: an I/O failure of the stream
// surfaces as *FeedError, distinguishable from decode errors.
func TestFromChunkedReaderFeedError(t *testing.T) {
	cause := errors.New("connection reset")
	src := jsi.FromChunkedReader(&failingReader{data: []byte(`{"a":1}` + "\n"), err: cause})
	_, _, err := jsi.Infer(context.Background(), src, jsi.Options{})
	var fe *jsi.FeedError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v, want *FeedError", err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("errors.Is(err, cause) = false; err = %v", err)
	}
	if fe.Path != "" {
		t.Errorf("FeedError.Path = %q, want empty (not a file)", fe.Path)
	}
}

// TestFromChunkedReaderEmpty: an empty stream yields the empty schema.
func TestFromChunkedReaderEmpty(t *testing.T) {
	schema, stats, err := jsi.Infer(context.Background(), jsi.FromChunkedReader(bytes.NewReader(nil)), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !schema.IsEmpty() || stats.Records != 0 {
		t.Errorf("schema = %s, records = %d; want empty, 0", schema, stats.Records)
	}
}

// TestFromChunkedReaderReusesChunkBuffers pins the process-wide chunk
// pool: a second FromChunkedReader run takes its chunk buffer from the
// pool the first run returned it to, instead of allocating even the
// smallest (64 KiB plus slack) size class afresh for a small body.
func TestFromChunkedReaderReusesChunkBuffers(t *testing.T) {
	// One P, so the release hook's Put and the next feed's Get meet in
	// the same per-P pool slot, and no GC to empty the pool in between.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	body := bytes.Repeat([]byte(`{"a":1}`+"\n"), 100)
	run := func() uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := jsi.Infer(context.Background(), jsi.FromChunkedReader(bytes.NewReader(body)), jsi.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run()
	// The race detector drops a quarter of sync.Pool puts on purpose, so
	// allow a few runs before calling a miss a failure.
	const smallestClass = 64 << 10
	var allocated uint64
	for attempt := 0; attempt < 16; attempt++ {
		if allocated = run(); allocated < smallestClass {
			return
		}
	}
	t.Fatalf("every repeated run allocated %d bytes, at least one %d-byte chunk buffer", allocated, smallestClass)
}
