package analyze

import (
	"go/ast"
	"go/parser"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseString parses one source string into the loader's file set.
func parseString(l *Loader, name, src string) (*ast.File, error) {
	return parser.ParseFile(l.fset, name, src, parser.ParseComments)
}

// TestLoaderResolvesModulePackages checks that the stdlib-only loader
// finds the module, maps directories to import paths, and type-checks a
// package with both stdlib and intra-module imports.
func TestLoaderResolvesModulePackages(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if loader.ModulePath() != "repro" {
		t.Fatalf("module path = %q, want repro", loader.ModulePath())
	}
	pkgs, err := loader.Load(filepath.Join(loader.root, "internal", "fusion"))
	if err != nil {
		t.Fatalf("Load(internal/fusion): %v", err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/fusion" {
		t.Fatalf("loaded %+v, want one package repro/internal/fusion", pkgs)
	}
	if pkgs[0].Types == nil || pkgs[0].Types.Scope().Lookup("Fuse") == nil {
		t.Fatalf("type-checked package lacks Fuse")
	}
	// The fusion package imports repro/internal/types; it must have
	// been loaded through the module resolver, not the source importer.
	if _, ok := loader.cache["repro/internal/types"]; !ok {
		t.Fatalf("dependency repro/internal/types not in loader cache")
	}
}

// TestLoaderSkipsTestdata checks the recursive walk excludes fixture
// trees, which intentionally contain analyzer violations.
func TestLoaderSkipsTestdata(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(filepath.Join(loader.root, "internal", "analyze") + "/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, p := range pkgs {
		if filepath.Base(filepath.Dir(p.Dir)) == "testdata" || filepath.Base(p.Dir) == "testdata" {
			t.Fatalf("walk descended into testdata: %s", p.Dir)
		}
	}
}

// TestRepositoryIsClean runs every analyzer over the whole module and
// requires zero findings — the same gate verify.sh and CI apply via
// cmd/repolint. A finding here means a determinism, immutability or
// concurrency invariant regressed (or a legitimate exception is missing
// its lint:ignore justification).
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(loader.root + "/...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("only %d packages loaded; the walk is missing most of the module", len(pkgs))
	}
	for _, d := range Check(pkgs, All()) {
		t.Errorf("%s", d)
	}
}

// TestDocAnchorsResolve checks that every finding's documentation link
// lands on a section: "## The analyzers" in docs/ANALYSIS.md holds
// exactly one "### <name>" heading per registered analyzer and none for
// anything else, so a deleted analyzer cannot leave a stale section and
// a new one cannot ship undocumented. The suppress pseudo-analyzer's
// anchor must name a heading too.
func TestDocAnchorsResolve(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	file, _, _ := strings.Cut(suppressDoc, "#")
	src, err := os.ReadFile(filepath.Join(loader.root, file))
	if err != nil {
		t.Fatal(err)
	}
	var headings []string
	sections := make(map[string]int)
	inAnalyzers := false
	for _, line := range strings.Split(string(src), "\n") {
		if h, ok := strings.CutPrefix(line, "## "); ok {
			headings = append(headings, h)
			inAnalyzers = h == "The analyzers"
		} else if h, ok := strings.CutPrefix(line, "### "); ok && inAnalyzers {
			sections[h]++
		}
	}

	for _, a := range All() {
		anchorFile, name, _ := strings.Cut(a.DocAnchor(), "#")
		if anchorFile != file || name != a.Name {
			t.Errorf("%s: doc anchor %q, want %s#%s", a.Name, a.DocAnchor(), file, a.Name)
		}
		if sections[name] != 1 {
			t.Errorf("%s: %d \"### %s\" sections under \"## The analyzers\", want 1", a.Name, sections[name], name)
		}
		delete(sections, name)
	}
	for name := range sections {
		t.Errorf("\"### %s\" under \"## The analyzers\" documents no registered analyzer", name)
	}

	_, frag, _ := strings.Cut(suppressDoc, "#")
	found := false
	for _, h := range headings {
		found = found || strings.ReplaceAll(strings.ToLower(h), " ", "-") == frag
	}
	if !found {
		t.Errorf("suppress anchor %q matches no \"## \" heading in %s", suppressDoc, file)
	}
}
