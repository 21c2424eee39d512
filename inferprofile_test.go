package jsoninference_test

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	jsi "repro"
)

// TestInferProfileMatchesWrappers pins the one-path contract for
// profiles, mirroring TestInferMatchesWrappers: InferProfile renders
// byte-identically over every Source kind, worker count and chunk size,
// and under a retry schedule, because it is Infer with enrichment on.
func TestInferProfileMatchesWrappers(t *testing.T) {
	path, data := manyChunks(t, 200)
	ctx := context.Background()

	want, st, err := jsi.InferProfile(ctx, jsi.FromBytes(data), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != want.Records() || st.Records == 0 {
		t.Errorf("Stats.Records = %d, Profile.Records = %d", st.Records, want.Records())
	}
	if st.Bytes != int64(len(data)) {
		t.Errorf("Stats.Bytes = %d, want %d", st.Bytes, len(data))
	}
	if st.DistinctTypes == 0 {
		t.Error("Stats.DistinctTypes = 0, want Infer's full Stats")
	}

	// Two partition files for FromFiles.
	half := len(data) / 2
	for data[half] != '\n' {
		half++
	}
	dir := t.TempDir()
	partA, partB := filepath.Join(dir, "a.ndjson"), filepath.Join(dir, "b.ndjson")
	if err := os.WriteFile(partA, data[:half+1], 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(partB, data[half+1:], 0o600); err != nil {
		t.Fatal(err)
	}
	// Every even chunk fails its first attempt and succeeds on retry.
	flaky := func(chunk, attempt int) jsi.InjectedFault {
		if attempt == 0 && chunk%2 == 0 {
			return jsi.InjectedFault{Err: errors.New("injected fault")}
		}
		return jsi.InjectedFault{}
	}

	for _, c := range []struct {
		name string
		src  func() jsi.Source
		opts jsi.Options
	}{
		{"FromReader", func() jsi.Source { return jsi.FromReader(bytes.NewReader(data)) }, jsi.Options{}},
		{"FromChunkedReader", func() jsi.Source { return jsi.FromChunkedReader(bytes.NewReader(data)) }, jsi.Options{}},
		{"FromFile", func() jsi.Source { return jsi.FromFile(path) }, jsi.Options{}},
		{"FromFiles", func() jsi.Source { return jsi.FromFiles(partA, partB) }, jsi.Options{}},
		{"Workers=1", func() jsi.Source { return jsi.FromBytes(data) }, jsi.Options{Workers: 1}},
		{"Workers=2", func() jsi.Source { return jsi.FromBytes(data) }, jsi.Options{Workers: 2}},
		{"Workers=8", func() jsi.Source { return jsi.FromBytes(data) }, jsi.Options{Workers: 8}},
		{"ChunkBytes=1KiB", func() jsi.Source { return jsi.FromFile(path) }, jsi.Options{ChunkBytes: 1 << 10}},
		{"Retries", func() jsi.Source { return jsi.FromFile(path) },
			jsi.Options{ChunkBytes: 1 << 10, Retries: 2, FaultInjector: flaky}},
	} {
		got, st, err := jsi.InferProfile(ctx, c.src(), c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: profile diverges from InferProfile(FromBytes)", c.name)
		}
		if c.opts.FaultInjector != nil && st.Retries == 0 {
			t.Errorf("%s: no chunk was retried", c.name)
		}
	}
}

// TestInferProfileSchemaAgreesWithInfer: the schema a profile implies
// equals the schema the inference pipeline produces for the same data.
func TestInferProfileSchemaAgreesWithInfer(t *testing.T) {
	_, data := manyChunks(t, 150)
	ctx := context.Background()
	p, _, err := jsi.InferProfile(ctx, jsi.FromBytes(data), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	schema, _, err := jsi.Infer(ctx, jsi.FromBytes(data), jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Schema().String(), schema.String(); got != want {
		t.Errorf("profile schema = %s, inferred = %s", got, want)
	}
}

func TestInferProfileCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src := jsi.FromReader(endlessReader{record: []byte(`{"a":1}` + "\n")})
	if _, _, err := jsi.InferProfile(ctx, src, jsi.Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestInferProfileValidation(t *testing.T) {
	ctx := context.Background()
	if _, _, err := jsi.InferProfile(ctx, nil, jsi.Options{}); !errors.Is(err, jsi.ErrInvalidOptions) {
		t.Errorf("nil source: err = %v, want ErrInvalidOptions", err)
	}
	if _, _, err := jsi.InferProfile(ctx, jsi.FromBytes(nil), jsi.Options{Workers: -1}); !errors.Is(err, jsi.ErrInvalidOptions) {
		t.Errorf("bad options: err = %v, want ErrInvalidOptions", err)
	}
	if _, _, err := jsi.InferProfile(ctx, jsi.FromBytes([]byte("{oops")), jsi.Options{}); err == nil {
		t.Error("malformed input: err = nil")
	}
	if _, _, err := jsi.InferProfile(ctx, jsi.FromFile("/does/not/exist"), jsi.Options{}); err == nil {
		t.Error("missing file: err = nil")
	} else {
		var fe *jsi.FeedError
		if !errors.As(err, &fe) {
			t.Errorf("missing file: err = %v, want *FeedError", err)
		}
	}
}
