package analyze

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fixture is a golden fixture package under testdata/src/<dir> and the
// analyzer it exercises.
type fixture struct {
	dir string
	a   *Analyzer
}

// fixtures lists one fixture per registered analyzer, named after it,
// plus typemut: internmut's intraprocedural cases (writes in the
// function that called the accessor), kept apart from the
// interprocedural ones in testdata/src/internmut.
func fixtures(t *testing.T) []fixture {
	var fs []fixture
	for _, a := range All() {
		fs = append(fs, fixture{a.Name, a})
		if a.Name == "internmut" {
			fs = append(fs, fixture{"typemut", a})
		}
	}
	if len(fs) != len(All())+1 {
		t.Fatalf("no internmut analyzer registered for the typemut fixture")
	}
	return fs
}

// TestFixtures runs each analyzer over its golden fixture packages under
// testdata/src/<dir> and checks the diagnostics against the fixture's
// `// want "substring"` annotations: every annotated line must produce
// a diagnostic containing the substring, and no unannotated diagnostics
// may appear. Fixture lines suppressed with //lint:ignore have no
// annotation, so the test also proves suppression works.
func TestFixtures(t *testing.T) {
	for _, f := range fixtures(t) {
		t.Run(f.dir, func(t *testing.T) {
			runFixture(t, f)
		})
	}
}

func runFixture(t *testing.T, f fixture) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dir := filepath.Join("testdata", "src", f.dir)
	pkg, err := loader.LoadDir(dir, "repro/internal/analyze/testdata/src/"+f.dir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	diags := Check([]*Package{pkg}, []*Analyzer{f.a})

	wants := collectWants(t, pkg)
	matched := make(map[string]bool)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		want, ok := wants[key]
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		if !strings.Contains(d.Message, want) {
			t.Errorf("diagnostic %s does not contain want %q", d, want)
		}
		matched[key] = true
	}
	for key, want := range wants {
		if !matched[key] {
			t.Errorf("no diagnostic at %s (want %q)", key, want)
		}
	}
}

// collectWants parses `// want "substring"` trailing comments from the
// fixture files, keyed by file:line.
func collectWants(t *testing.T, pkg *Package) map[string]string {
	wants := make(map[string]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want ")
				if !ok {
					continue
				}
				want, err := strconv.Unquote(strings.TrimSpace(rest))
				if err != nil {
					t.Fatalf("bad want comment %q: %v", c.Text, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = want
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture for %s has no want annotations", pkg.Path)
	}
	return wants
}

// TestFixturesHaveSuppressedCase ensures every fixture demonstrates the
// lint:ignore escape hatch, as the analyzers' documentation promises.
func TestFixturesHaveSuppressedCase(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	for _, fx := range fixtures(t) {
		dir := filepath.Join("testdata", "src", fx.dir)
		pkg, err := loader.LoadDir(dir, "repro/internal/analyze/testdata/suppr/"+fx.dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		found := false
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, "//lint:ignore "+fx.a.Name) {
						found = true
					}
				}
			}
		}
		if !found {
			t.Errorf("fixture %s has no //lint:ignore %s case", dir, fx.a.Name)
		}
	}
}

// TestSuppressionDirectiveParsing checks directive matching rules
// directly: same line, line above, wrong analyzer, malformed.
func TestSuppressionDirectiveParsing(t *testing.T) {
	src := `package p

//lint:ignore nondetmap reason one
var a int

var b int //lint:ignore all reason two

//lint:ignore goroleak,internmut reason three
var c int

//lint:ignore droppederr
var d int
`
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	f, err := parseString(loader, "sup.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sup, _ := collectSuppressions(loader.fset, []*ast.File{f})

	cases := []struct {
		line     int
		analyzer string
		want     bool
	}{
		{4, "nondetmap", true},    // directive on line above
		{4, "goroleak", false},    // wrong analyzer
		{6, "droppederr", true},   // trailing "all" directive
		{9, "internmut", true},    // comma list
		{9, "goroleak", true},     // comma list
		{9, "poolescape", false},  // not in list
		{12, "droppederr", false}, // malformed: missing reason
	}
	for _, tc := range cases {
		d := Diagnostic{Analyzer: tc.analyzer}
		d.Pos.Filename = "sup.go"
		d.Pos.Line = tc.line
		if got := sup.matches(d); got != tc.want {
			t.Errorf("line %d analyzer %s: matches=%v, want %v", tc.line, tc.analyzer, got, tc.want)
		}
	}
}
