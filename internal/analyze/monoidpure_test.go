package analyze

import (
	"path/filepath"
	"testing"
)

// TestMonoidPureRootsEnrich pins the analyzer's coverage of the
// enrichment package: every combine path of internal/enrich — the
// monoid Merge/Fold methods, the lattice merge, and the cross-set
// Union/absorb machinery — must be rooted, so a nondeterministic or
// operand-mutating enrichment merge fails repolint, not just the
// conformance harness.
func TestMonoidPureRootsEnrich(t *testing.T) {
	pkgs, names := loadMonoidRoots(t, "enrich")
	pkg := pkgs[0]
	for _, want := range []string{
		"Lattice.Merge", "node.merge", "Union", "node.absorb",
		"ranges.Merge", "hll.Merge", "bloom.Merge", "formats.Merge",
		"lengths.Merge", "numPrec.Merge",
		"ranges.Fold", "hll.Fold", "bloom.Fold", "formats.Fold",
		"lengths.Fold", "numPrec.Fold",
	} {
		if !names[want] {
			t.Errorf("monoidRoots missed %s (got %v)", want, names)
		}
	}

	// And the package must be clean under the full interprocedural
	// check, with no suppressions to hide behind.
	diags := Check(pkgs, []*Analyzer{MonoidPure})
	for _, d := range diags {
		t.Errorf("internal/enrich: %s", d)
	}
	sup, _ := collectSuppressions(pkg.Fset, pkg.Files)
	if len(sup) > 0 {
		t.Errorf("internal/enrich carries lint:ignore suppression(s) in %d file(s); enrichment merge paths must be clean without them", len(sup))
	}
}

// TestMonoidPureRootsPipeline pins that the pipeline accumulator is
// rooted: its Merge and Fold, so chunkAcc.Merge's reach into
// stats.Summary.Merge and intern.Multiset.Merge is checked.
func TestMonoidPureRootsPipeline(t *testing.T) {
	_, names := loadMonoidRoots(t, "pipeline")
	for _, want := range []string{
		"chunkAcc.Merge", "chunkAcc.Fold",
	} {
		if !names[want] {
			t.Errorf("monoidRoots missed %s (got %v)", want, names)
		}
	}
}

// loadMonoidRoots loads repro/internal/<dir> and returns it with the
// display names of its monoidpure roots.
func loadMonoidRoots(t *testing.T, dir string) ([]*Package, map[string]bool) {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load(filepath.Join(loader.root, "internal", dir))
	if err != nil {
		t.Fatalf("Load(internal/%s): %v", dir, err)
	}
	if want := "repro/internal/" + dir; len(pkgs) != 1 || pkgs[0].Path != want {
		t.Fatalf("loaded %+v, want one package %s", pkgs, want)
	}
	pkg := pkgs[0]
	pass := &Pass{
		Analyzer: MonoidPure,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	names := make(map[string]bool)
	for _, fn := range monoidRoots(pass) {
		names[rootDisplayName(fn)] = true
	}
	return pkgs, names
}
