// Package analyze is a hand-rolled static-analysis driver for this
// repository, built only on the standard library (go/parser, go/ast,
// go/types — no golang.org/x/tools). It exists because the core claims
// of the reproduction are *invariants of the implementation*, not just
// of the algorithms: fusion is commutative and associative so any
// reduction order must give byte-for-byte identical schemas, fused
// types share subtrees so they must never be mutated after
// construction, and the map-reduce layer must not leak goroutines.
// Runtime property tests exercise these invariants on the inputs they
// happen to generate; the analyzers in this package check the *source*
// for the coding patterns that break them, on every build.
//
// The seven project-specific analyzers are:
//
//   - nondetmap: iteration over a Go map whose body performs an
//     order-sensitive operation (append to an outer slice, channel
//     send, writer emission) without sorting — the determinism
//     guarantee (docs/ANALYSIS.md).
//   - goroleak: `go func` literals with no completion accounting (no
//     WaitGroup, no channel close/send, no done-channel) in scope.
//   - droppederr: discarded error results from encoding/json, io and
//     os calls.
//   - monoidpure: accumulator methods (Add/Merge/Fold) and the fusion
//     entry points must be transitively free of nondeterminism and
//     external mutation — checked through calls via the function
//     summaries of callgraph.go/summary.go.
//   - internmut: writes through the shared slices returned by
//     types.Type accessors (Fields/Elems/Alts) outside the constructor
//     packages — fused types alias subtrees, so such writes corrupt
//     sibling schemas. Covers direct writes and append/copy in the
//     function holding the slice, and escapes into callees that mutate
//     it (via the summaries).
//   - ctxflow: functions that receive a context.Context must pass it
//     down rather than minting context.Background(), and loops that
//     spawn goroutines must observe ctx.Done().
//   - poolescape: pooled chunk buffers (sync.Pool, jsontext.ChunkPool)
//     used after being Put back, and map stages handed to the engine
//     (mapreduce.Run hands each item back to its feed for recycling)
//     whose output aliases that item — the pull feed's recycling
//     contract (docs/PERFORMANCE.md).
//
// Copied locks are left to go vet's copylocks check, which verify.sh
// runs in the same gate.
//
// monoidpure, internmut and ctxflow consume the per-function fact
// summaries built by ComputeSummaries (pass 1); the driver computes
// those once per Check over the full package set, so facts flow across
// every package loaded together.
//
// Diagnostics can be suppressed with a `//lint:ignore <analyzers>
// <reason>` comment on the flagged line or the line directly above it;
// see suppress.go. Directives naming an analyzer that does not exist
// are themselves reported (analyzer "suppress") rather than silently
// accepted. The cmd/repolint command is the CLI front end and verify.sh
// wires it into CI.
package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"time"
)

// Analyzer is one named check. Run inspects a type-checked package via
// the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name is the analyzer's identifier, used in reports and in
	// lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer
	// guards.
	Doc string
	// Run executes the analyzer over one package.
	Run func(*Pass)
	// NeedsSummaries marks interprocedural analyzers: the driver
	// computes function summaries over the whole package set before
	// running them and exposes the result as Pass.Sums.
	NeedsSummaries bool
}

// DocAnchor returns the analyzer's documentation link, an anchor into
// docs/ANALYSIS.md. It is attached to every finding (JSON `doc` field,
// SARIF helpUri).
func (a *Analyzer) DocAnchor() string {
	return "docs/ANALYSIS.md#" + a.Name
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Analyzer is the check being run.
	Analyzer *Analyzer
	// Fset maps token positions to file locations.
	Fset *token.FileSet
	// Files are the package's parsed files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// Info holds the type-checker's recordings for the files.
	Info *types.Info
	// Sums holds the interprocedural function summaries, non-nil only
	// for analyzers with NeedsSummaries set.
	Sums *Summaries

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, token.NoPos, format, args...)
}

// ReportNode records a finding spanning the node, so the diagnostic
// carries an end position (JSON endLine/endCol, SARIF region).
func (p *Pass) ReportNode(n ast.Node, format string, args ...any) {
	p.report(n.Pos(), n.End(), format, args...)
}

func (p *Pass) report(pos, end token.Pos, format string, args ...any) {
	d := Diagnostic{
		Analyzer: p.Analyzer.Name,
		Doc:      p.Analyzer.DocAnchor(),
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	}
	if end.IsValid() {
		d.End = p.Fset.Position(end)
	}
	*p.diags = append(*p.diags, d)
}

// TypeOf returns the type of e, or nil if the checker did not record
// one.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// exprString renders an expression for use in diagnostics and for the
// syntactic matching of the collect-then-sort idiom.
func exprString(e ast.Expr) string { return types.ExprString(e) }

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Defs[id]; o != nil {
		return o
	}
	return p.Info.Uses[id]
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Analyzer names the check that fired.
	Analyzer string `json:"analyzer"`
	// Doc is the documentation anchor for the analyzer.
	Doc string `json:"doc"`
	// Pos locates the finding; End, when valid, closes the flagged
	// source range.
	Pos token.Position `json:"-"`
	End token.Position `json:"-"`
	// Message explains the finding.
	Message string `json:"message"`

	// File, Line and Col mirror Pos for JSON output; EndLine/EndCol
	// mirror End (zero when the finding has no range).
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	EndLine int    `json:"endLine,omitempty"`
	EndCol  int    `json:"endCol,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the registered analyzers in a fixed order.
func All() []*Analyzer {
	return []*Analyzer{
		NondetMap,
		GoroLeak,
		DroppedErr,
		MonoidPure,
		InternMut,
		CtxFlow,
		PoolEscape,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// AnalyzerStat is one analyzer's cost and yield over a Check run, for
// verify.sh's per-analyzer report. The pseudo-entry "summaries" covers
// pass 1 (call graph + fixpoint), shared by all interprocedural
// analyzers.
type AnalyzerStat struct {
	Name     string
	Findings int
	Elapsed  time.Duration
}

// Check runs the analyzers over the packages, drops findings matched by
// lint:ignore directives, and returns the remainder sorted by file,
// line, column and analyzer name so output is deterministic.
func Check(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := CheckStats(pkgs, analyzers)
	return diags
}

// CheckStats is Check plus per-analyzer timing and finding counts.
// Summaries are computed once over the whole package set when any
// requested analyzer needs them, so interprocedural facts flow across
// every package loaded together.
func CheckStats(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerStat) {
	var sums *Summaries
	stats := make([]AnalyzerStat, 0, len(analyzers)+1)
	for _, a := range analyzers {
		if a.NeedsSummaries {
			start := time.Now()
			sums = ComputeSummaries(pkgs)
			stats = append(stats, AnalyzerStat{Name: "summaries", Elapsed: time.Since(start)})
			break
		}
	}

	var diags []Diagnostic
	statIdx := make(map[string]int)
	for _, pkg := range pkgs {
		sup, bad := collectSuppressions(pkg.Fset, pkg.Files)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			start := time.Now()
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &pkgDiags,
			}
			if a.NeedsSummaries {
				pass.Sums = sums
			}
			a.Run(pass)

			i, ok := statIdx[a.Name]
			if !ok {
				i = len(stats)
				statIdx[a.Name] = i
				stats = append(stats, AnalyzerStat{Name: a.Name})
			}
			stats[i].Elapsed += time.Since(start)
		}
		// Malformed or unknown-name directives are findings in their own
		// right (analyzer "suppress") and are never suppressible — a
		// directive must not be able to silence the report about itself.
		pkgDiags = append(pkgDiags, bad...)
		for _, d := range pkgDiags {
			if d.Analyzer != suppressName && sup.matches(d) {
				continue
			}
			d.File, d.Line, d.Col = d.Pos.Filename, d.Pos.Line, d.Pos.Column
			if d.End.IsValid() {
				d.EndLine, d.EndCol = d.End.Line, d.End.Column
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	// Finding counts reflect what survived suppression — the numbers a
	// CI log should show next to each analyzer's cost.
	for _, d := range diags {
		i, ok := statIdx[d.Analyzer]
		if !ok {
			i = len(stats)
			statIdx[d.Analyzer] = i
			stats = append(stats, AnalyzerStat{Name: d.Analyzer})
		}
		stats[i].Findings++
	}
	return diags, stats
}
