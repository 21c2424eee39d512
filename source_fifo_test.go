//go:build unix

package jsoninference_test

import (
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	jsi "repro"
)

// TestFileBytesFromFIFO: FromFile and FromFiles report the bytes they
// read also from a file that has no size, a named pipe.
func TestFileBytesFromFIFO(t *testing.T) {
	data := []byte(`{"a": 1, "b": "x"}` + "\n" + `[true, null]` + "\n")
	for name, src := range map[string]func(string) jsi.Source{
		"FromFile":  func(p string) jsi.Source { return jsi.FromFile(p) },
		"FromFiles": func(p string) jsi.Source { return jsi.FromFiles(p) },
	} {
		path := filepath.Join(t.TempDir(), "in.fifo")
		if err := syscall.Mkfifo(path, 0o600); err != nil {
			t.Skipf("mkfifo: %v", err)
		}
		wrote := make(chan error, 1)
		go func() {
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				wrote <- err
				return
			}
			_, err = f.Write(data)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			wrote <- err
		}()
		_, st, err := jsi.Infer(context.Background(), src(path), jsi.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Infer read to the end, so the writer has closed the pipe.
		if werr := <-wrote; werr != nil {
			t.Fatalf("%s: writing the pipe: %v", name, werr)
		}
		if st.Bytes != int64(len(data)) || st.Records != 2 {
			t.Errorf("%s: Stats.Bytes = %d, Records = %d; want %d, 2", name, st.Bytes, st.Records, len(data))
		}
	}
}
