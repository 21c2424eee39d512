package jsoninference_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// internImporters are the only non-test files outside internal/intern
// allowed to import it: the benchmark's dedup probe calls them, and no
// inference path does.
var internImporters = map[string]bool{
	"internal/fusion/memo.go": true,
	"internal/infer/dedup.go": true,
}

// TestInternIsALeaf keeps interning a leaf of the main module: it
// parses the imports of every non-test .go file (bench/, a module of
// its own, excluded) and fails if a file other than internal/intern's
// own and internImporters imports repro/internal/intern.
func TestInternIsALeaf(t *testing.T) {
	fset := token.NewFileSet()
	parsed := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (path == "bench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		parsed++
		rel := filepath.ToSlash(path)
		if strings.HasPrefix(rel, "internal/intern/") || internImporters[rel] {
			return nil
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "repro/internal/intern" {
				t.Errorf("%s imports repro/internal/intern; only %v may", rel, internImporters)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if parsed == 0 {
		t.Fatal("no Go files parsed")
	}
}
