package jsoninference_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	jsi "repro"
	"repro/internal/dataset"
)

// manyChunks writes an NDJSON file large enough to split into many
// chunks at the given chunk size.
func manyChunks(t *testing.T, records int) (string, []byte) {
	t.Helper()
	g, err := dataset.New("twitter")
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.NDJSON(g, records, 11)
	path := filepath.Join(t.TempDir(), "data.ndjson")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// endlessReader yields the same NDJSON record forever, so only
// cancellation can end a run over it.
type endlessReader struct{ record []byte }

func (r endlessReader) Read(p []byte) (int, error) {
	n := 0
	for n+len(r.record) <= len(p) {
		n += copy(p[n:], r.record)
	}
	if n == 0 {
		n = copy(p, r.record)
	}
	return n, nil
}

// cancelingReader passes r through and cancels once its first read
// has delivered bytes, so a stream over it is provably mid-flight when
// its context dies.
type cancelingReader struct {
	r      io.Reader
	cancel context.CancelFunc
}

func (c cancelingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if n > 0 {
		c.cancel()
	}
	return n, err
}

// cancelOnMap is a FaultInjector that injects nothing but cancels the
// run as a chunk's map attempt starts: the run is then provably
// mid-flight on every chunked Source.
func cancelOnMap(cancel context.CancelFunc) jsi.FaultInjector {
	return func(int, int) jsi.InjectedFault {
		cancel()
		return jsi.InjectedFault{}
	}
}

// checkNoLeakedGoroutines asserts the goroutine count returns to its
// pre-test level, allowing the runtime a moment to wind workers down.
func checkNoLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestInferCancellation cancels a run mid-flight for every Source kind
// and asserts a prompt, clean return: the error reports the
// cancellation and no pipeline goroutine survives (the -race runs of
// CI would also flag any unsynchronized stragglers).
func TestInferCancellation(t *testing.T) {
	path, data := manyChunks(t, 2000)
	opts := jsi.Options{Workers: 2, ChunkBytes: 4 << 10}

	// The chunked sources cancel from the fault injector, which only
	// they consult; the stream cancels from its reader.
	sources := map[string]func(cancel context.CancelFunc) jsi.Source{
		"bytes": func(context.CancelFunc) jsi.Source { return jsi.FromBytes(data) },
		"reader": func(cancel context.CancelFunc) jsi.Source {
			return jsi.FromReader(cancelingReader{r: endlessReader{record: []byte(`{"a":1}` + "\n")}, cancel: cancel})
		},
		"file":  func(context.CancelFunc) jsi.Source { return jsi.FromFile(path) },
		"files": func(context.CancelFunc) jsi.Source { return jsi.FromFiles(path, path) },
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			o := opts
			o.FaultInjector = cancelOnMap(cancel)
			_, _, err := jsi.Infer(ctx, src(cancel), o)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			checkNoLeakedGoroutines(t, before)
		})
	}
}

// TestInferPreCancelled asserts an already-cancelled context never
// starts work.
func TestInferPreCancelled(t *testing.T) {
	_, data := manyChunks(t, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := jsi.Infer(ctx, jsi.FromBytes(data), jsi.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestInferMatchesWrappers pins the wrapper contract: Infer over each
// Source kind returns exactly what the corresponding legacy entry
// point returns.
func TestInferMatchesWrappers(t *testing.T) {
	path, data := manyChunks(t, 300)
	opts := jsi.Options{Workers: 3, ChunkBytes: 8 << 10}
	ctx := context.Background()

	wrapped, wStats, err := jsi.InferNDJSON(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, dStats, err := jsi.Infer(ctx, jsi.FromBytes(data), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !wrapped.Equal(direct) || wStats != dStats {
		t.Errorf("FromBytes disagrees with InferNDJSON: %+v vs %+v", dStats, wStats)
	}

	fileSchema, fStats, err := jsi.Infer(ctx, jsi.FromFile(path), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !fileSchema.Equal(direct) {
		t.Errorf("FromFile schema differs:\n%s\nvs\n%s", fileSchema, direct)
	}
	if fStats.Records != wStats.Records || fStats.DistinctTypes != wStats.DistinctTypes {
		t.Errorf("FromFile stats differ: %+v vs %+v", fStats, wStats)
	}

	readerSchema, _, err := jsi.Infer(ctx, jsi.FromReader(bytes.NewReader(data)), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !readerSchema.Equal(direct) {
		t.Errorf("FromReader schema differs:\n%s\nvs\n%s", readerSchema, direct)
	}
}

// TestInferFilesBoundedMemoryPath asserts FromFiles goes through the
// chunked pipeline (many chunks per file) and still fuses to the
// whole-dataset schema.
func TestInferFilesBoundedMemoryPath(t *testing.T) {
	path, data := manyChunks(t, 500)
	c := jsi.NewCollector()
	opts := jsi.Options{ChunkBytes: 4 << 10, Collector: c}
	split, stats, err := jsi.Infer(context.Background(), jsi.FromFiles(path, path), opts)
	if err != nil {
		t.Fatal(err)
	}
	whole, _, err := jsi.InferNDJSON(append(append([]byte(nil), data...), data...), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !split.Equal(whole) {
		t.Errorf("per-file fusion differs from whole-dataset inference:\n%s\nvs\n%s", split, whole)
	}
	if stats.Records != 1000 {
		t.Errorf("Records = %d", stats.Records)
	}
	m := c.Metrics()
	if m.Counters["infer_chunks"] < 4 {
		t.Errorf("expected many chunks through the bounded-memory path, got %d", m.Counters["infer_chunks"])
	}
}

// TestOptionsValidation drives every negative field through every
// entry point that accepts Options.
func TestOptionsValidation(t *testing.T) {
	fields := []struct {
		name string
		opts jsi.Options
	}{
		{"Workers", jsi.Options{Workers: -1}},
		{"ChunkBytes", jsi.Options{ChunkBytes: -1}},
		{"MaxDepth", jsi.Options{MaxDepth: -1}},
	}
	data := []byte(`{"a":1}`)
	entries := []struct {
		name string
		call func(jsi.Options) error
	}{
		{"Infer", func(o jsi.Options) error {
			_, _, err := jsi.Infer(context.Background(), jsi.FromBytes(data), o)
			return err
		}},
		{"InferNDJSON", func(o jsi.Options) error { _, _, err := jsi.InferNDJSON(data, o); return err }},
		{"InferReader", func(o jsi.Options) error {
			_, _, err := jsi.InferReader(strings.NewReader(`{"a":1}`), o)
			return err
		}},
		{"InferFile", func(o jsi.Options) error { _, _, err := jsi.InferFile("/dev/null", o); return err }},
		{"InferFiles", func(o jsi.Options) error { _, _, err := jsi.InferFiles([]string{"/dev/null"}, o); return err }},
		{"InferProfile", func(o jsi.Options) error {
			_, _, err := jsi.InferProfile(context.Background(), jsi.FromBytes(data), o)
			return err
		}},
		{"InferProfileFromReader", func(o jsi.Options) error {
			_, _, err := jsi.InferProfile(context.Background(), jsi.FromReader(strings.NewReader(`{"a":1}`)), o)
			return err
		}},
	}
	for _, entry := range entries {
		for _, field := range fields {
			t.Run(entry.name+"/"+field.name, func(t *testing.T) {
				err := entry.call(field.opts)
				if !errors.Is(err, jsi.ErrInvalidOptions) {
					t.Fatalf("err = %v, want ErrInvalidOptions", err)
				}
				if !strings.Contains(err.Error(), field.name) {
					t.Errorf("error %q does not name the bad field %s", err, field.name)
				}
			})
		}
	}
	// A nil Source is rejected, not dereferenced.
	if _, _, err := jsi.Infer(context.Background(), nil, jsi.Options{}); !errors.Is(err, jsi.ErrInvalidOptions) {
		t.Errorf("nil Source: err = %v, want ErrInvalidOptions", err)
	}
}

// TestMaxDepthEverySource pins that Options.MaxDepth bounds nesting on
// every Source kind, the chunked ones included: a 50-deep array is
// rejected under MaxDepth 10 and accepted under the default.
func TestMaxDepthEverySource(t *testing.T) {
	deep := []byte(strings.Repeat("[", 50) + strings.Repeat("]", 50) + "\n")
	path := filepath.Join(t.TempDir(), "deep.json")
	if err := os.WriteFile(path, deep, 0o600); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() jsi.Source{
		"FromBytes":         func() jsi.Source { return jsi.FromBytes(deep) },
		"FromReader":        func() jsi.Source { return jsi.FromReader(bytes.NewReader(deep)) },
		"FromChunkedReader": func() jsi.Source { return jsi.FromChunkedReader(bytes.NewReader(deep)) },
		"FromFile":          func() jsi.Source { return jsi.FromFile(path) },
		"FromFiles":         func() jsi.Source { return jsi.FromFiles(path, path) },
	}
	for name, src := range sources {
		if _, _, err := jsi.Infer(context.Background(), src(), jsi.Options{MaxDepth: 10}); err == nil || !strings.Contains(err.Error(), "nesting deeper than 10") {
			t.Errorf("%s: MaxDepth 10 over depth 50: err = %v, want a nesting error", name, err)
		}
		if _, _, err := jsi.Infer(context.Background(), src(), jsi.Options{}); err != nil {
			t.Errorf("%s: default MaxDepth rejected depth 50: %v", name, err)
		}
	}
}

// TestSyntaxErrorOffsetEverySource pins that every Source kind reports
// a decode error at its offset in the input, not in the chunk that
// holds it: a duplicate key in record 401 of 450, past many chunks of
// every chunked Source, is reported at the same offset as FromReader
// reports it.
func TestSyntaxErrorOffsetEverySource(t *testing.T) {
	var data []byte
	var want int64
	for i := 0; i < 450; i++ {
		if i == 400 {
			data = append(data, `{"a": 1, `...)
			want = int64(len(data))
			data = append(data, `"a": 2}`+"\n"...)
			continue
		}
		data = fmt.Appendf(data, `{"a": %d, "b": "%s"}`+"\n", i, strings.Repeat("x", i%50))
	}
	path := filepath.Join(t.TempDir(), "dup.ndjson")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() jsi.Source{
		"FromBytes":         func() jsi.Source { return jsi.FromBytes(data) },
		"FromReader":        func() jsi.Source { return jsi.FromReader(bytes.NewReader(data)) },
		"FromChunkedReader": func() jsi.Source { return jsi.FromChunkedReader(bytes.NewReader(data)) },
		"FromFile":          func() jsi.Source { return jsi.FromFile(path) },
		"FromFiles":         func() jsi.Source { return jsi.FromFiles(path) },
	}
	at := fmt.Sprintf("syntax error at offset %d:", want)
	for name, src := range sources {
		_, _, err := jsi.Infer(context.Background(), src(), jsi.Options{Workers: 2, ChunkBytes: 1 << 10})
		if err == nil || !strings.Contains(err.Error(), at) {
			t.Errorf("%s: err = %v, want %q", name, err, at)
		}
	}
}

// TestReaderEOFVsEndless sanity-checks the endlessReader helper against
// a bounded read, so the cancellation test above cannot silently pass
// by the reader running dry.
func TestReaderEOFVsEndless(t *testing.T) {
	var r io.Reader = endlessReader{record: []byte(`1` + "\n")}
	buf := make([]byte, 16)
	for i := 0; i < 3; i++ {
		n, err := r.Read(buf)
		if n == 0 || err != nil {
			t.Fatalf("endlessReader ran dry: n=%d err=%v", n, err)
		}
	}
}

// TestReaderStaysPlain pins the constant-memory stream on its worst
// case, data where every record has a type of its own: FromReader
// allocates about as much per record over 8,000 records as over 1,000.
func TestReaderStaysPlain(t *testing.T) {
	// Record i sets each of 12 fields to one of four kinds, picked by the
	// base-4 digits of i: every record type is distinct, while the fused
	// schema stays 12 fields wide.
	allDistinct := func(n int) []byte {
		kinds := []string{"null", "1", `"s"`, "true"}
		var b bytes.Buffer
		for i := 0; i < n; i++ {
			b.WriteByte('{')
			for f, d := 0, i; f < 12; f, d = f+1, d/4 {
				if f > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, `"f%d":%s`, f, kinds[d%4])
			}
			b.WriteString("}\n")
		}
		return b.Bytes()
	}
	perRecord := func(n int) float64 {
		t.Helper()
		data := allDistinct(n)
		c := jsi.NewCollector()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, st, err := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), jsi.Options{Collector: c})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if st.Records != int64(n) || st.DistinctTypes != 0 {
			t.Fatalf("%d records: Stats = %+v", n, st)
		}
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	}
	small, large := perRecord(1000), perRecord(8000)
	if large > 1.25*small {
		t.Errorf("allocations per record grew with the stream: %.0f B at 1,000 records, %.0f B at 8,000", small, large)
	}
}
