package analyze

import (
	"go/ast"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuppressionMultiAnalyzerDirective checks one directive silencing
// several analyzers at once: every name in the comma list is honored on
// both covered lines (the directive's own and the one below), and names
// outside the list keep firing.
func TestSuppressionMultiAnalyzerDirective(t *testing.T) {
	src := `package p

//lint:ignore nondetmap,monoidpure,ctxflow the three findings below share one root cause
var tracked int
`
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	f, err := parseString(loader, "multi.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sup, bad := collectSuppressions(loader.fset, []*ast.File{f})
	if len(bad) != 0 {
		t.Fatalf("directive reported as defective: %v", bad)
	}
	for _, name := range []string{"nondetmap", "monoidpure", "ctxflow"} {
		for _, line := range []int{3, 4} {
			d := Diagnostic{Analyzer: name}
			d.Pos.Filename = "multi.go"
			d.Pos.Line = line
			if !sup.matches(d) {
				t.Errorf("%s at line %d not suppressed by comma list", name, line)
			}
		}
	}
	d := Diagnostic{Analyzer: "internmut"}
	d.Pos.Filename = "multi.go"
	d.Pos.Line = 4
	if sup.matches(d) {
		t.Errorf("internmut suppressed despite not being in the list")
	}
}

// TestSuppressionVarBlockScope pins the deliberate narrowness of
// directive placement: a directive above a file-level var block reaches
// only the block's first line, so later declarations in the group still
// need their own per-line directives.
func TestSuppressionVarBlockScope(t *testing.T) {
	src := `package p

//lint:ignore internmut the whole block is scratch state
var (
	first  int
	second int //lint:ignore internmut per-line directive inside the block
	third  int
)
`
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	f, err := parseString(loader, "block.go", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sup, bad := collectSuppressions(loader.fset, []*ast.File{f})
	if len(bad) != 0 {
		t.Fatalf("directives reported as defective: %v", bad)
	}
	cases := []struct {
		line int
		want bool
	}{
		{4, true},  // var ( — the line directly below the block directive
		{5, false}, // first: the block directive does NOT reach inside
		{6, true},  // second: own trailing directive
		{7, true},  // third: covered by second's directive one line above
	}
	for _, tc := range cases {
		d := Diagnostic{Analyzer: "internmut"}
		d.Pos.Filename = "block.go"
		d.Pos.Line = tc.line
		if got := sup.matches(d); got != tc.want {
			t.Errorf("line %d: matches=%v, want %v", tc.line, got, tc.want)
		}
	}
}

// TestSuppressionUnknownAnalyzerReported checks that a directive naming
// a nonexistent analyzer is itself surfaced as a "suppress" finding by
// the full Check pipeline, that the remaining valid names in the list
// still take effect, and that suppress findings cannot be silenced.
func TestSuppressionUnknownAnalyzerReported(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "time"

type Acc struct{ n int }

func (a *Acc) Add(v int) { a.n += v }

func (a *Acc) Merge(o *Acc) {
	//lint:ignore all this cannot hide the defective directive below
	//lint:ignore monoidpure,nosuchanalyzer timestamps are diagnostics-only here
	_ = time.Now()
	a.n += o.n
}

func (a *Acc) Fold() int { return a.n }
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir, "suppressfixture")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	diags := Check([]*Package{pkg}, All())

	var suppressFindings, monoidFindings int
	for _, d := range diags {
		switch d.Analyzer {
		case suppressName:
			suppressFindings++
			if !strings.Contains(d.Message, `unknown analyzer "nosuchanalyzer"`) {
				t.Errorf("suppress finding has wrong message: %s", d.Message)
			}
			if d.Doc != suppressDoc {
				t.Errorf("suppress finding doc = %q, want %q", d.Doc, suppressDoc)
			}
		case "monoidpure":
			monoidFindings++
		}
	}
	if suppressFindings != 1 {
		t.Errorf("got %d suppress findings, want 1 (unknown name must be reported): %v", suppressFindings, diags)
	}
	if monoidFindings != 0 {
		t.Errorf("valid name in mixed list did not suppress monoidpure: %v", diags)
	}
}

// TestSuppressionMissingReasonReported checks the other defect class
// end-to-end: a reasonless directive is reported and takes no effect,
// so the finding it meant to silence fires as well.
func TestSuppressionMissingReasonReported(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "time"

type Acc struct{ n int }

func (a *Acc) Add(v int) { a.n += v }

func (a *Acc) Merge(o *Acc) {
	//lint:ignore monoidpure
	_ = time.Now()
	a.n += o.n
}

func (a *Acc) Fold() int { return a.n }
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := loader.LoadDir(dir, "reasonlessfixture")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	diags := Check([]*Package{pkg}, All())

	var missingReason, monoid bool
	for _, d := range diags {
		if d.Analyzer == suppressName && strings.Contains(d.Message, "missing its reason") {
			missingReason = true
		}
		if d.Analyzer == "monoidpure" {
			monoid = true
		}
	}
	if !missingReason {
		t.Errorf("reasonless directive not reported: %v", diags)
	}
	if !monoid {
		t.Errorf("reasonless directive still suppressed the monoidpure finding: %v", diags)
	}
}
