package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// InternMut guards the immutability of the schema type language. Values
// of repro/internal/types.Type are shared freely once built: fusion's
// copy-on-write returns its operands' own nodes, the map stage's run
// cover and walk reuse the reference's subtrees, a TreeFold's partials
// share nodes with the types folded into them, and map-reduce workers
// hand types across goroutines without copying. All of that is sound
// only because no one writes into a type after construction.
//
// The compiler already prevents direct field writes (the fields are
// unexported), but the accessors Fields, Elems and Alts return the
// internal slices for zero-copy iteration, and a write through such a
// slice corrupts every schema sharing that subtree. Outside the
// constructor packages types, fusion and infer, which own the
// invariant, the analyzer reports in one walk per file:
//
//   - element writes through an accessor result (r.Fields()[0].Type = x,
//     or via a variable bound to the accessor's result);
//   - append and copy whose destination is an accessor result (append
//     may write in place when capacity allows, copy always writes);
//   - calls that feed an accessor result (directly, sliced, or via a
//     bound variable) into a parameter the callee may write through,
//     transitively (the MutParams of summary.go — fs[i] = x,
//     copy(fs, ...), append in place two calls down), or into a known
//     in-place standard-library mutator (sort.Slice, slices.Sort, ...).
//
// The same three rules cover a slice handed to types.NewRecordSorted or
// types.MustRecordSorted: those constructors keep their argument as the
// record's fields instead of copying it, so from the call on, the
// caller's variable aliases an immutable type.
//
// Excused: read-only consumption (iteration, len, rendering), passing
// accessor slices into the constructor packages' own entry points
// (types.NewRecord copies its input; the sorted constructors share it
// between two immutable records), and call targets with no static
// summary (interface methods, func values) — a documented blind spot
// rather than a guess.
var InternMut = &Analyzer{
	Name:           "internmut",
	Doc:            "write through a shared types.Type accessor slice, directly or in a callee, outside the constructor packages",
	Run:            runInternMut,
	NeedsSummaries: true,
}

// typesPkgPath is the package whose values the analyzer protects.
const typesPkgPath = "repro/internal/types"

// typeMutAllowed are the packages allowed to touch type internals: the
// type language itself and the two packages that construct types.
var typeMutAllowed = map[string]bool{
	typesPkgPath:            true,
	"repro/internal/fusion": true,
	"repro/internal/infer":  true,
}

// accessorNames are the types.Type methods returning internal slices.
var accessorNames = map[string]bool{
	"Fields": true,
	"Elems":  true,
	"Alts":   true,
}

// keepingConstructors are the functions of the protected types package
// that keep their slice argument instead of copying it.
var keepingConstructors = map[string]bool{
	"NewRecordSorted":  true,
	"MustRecordSorted": true,
}

func runInternMut(pass *Pass) {
	if typeMutAllowed[pass.Pkg.Path()] {
		return
	}
	for _, f := range pass.Files {
		tainted := taintedObjects(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range nn.Lhs {
					reportSharedWrite(pass, lhs, tainted)
				}
			case *ast.IncDecStmt:
				reportSharedWrite(pass, nn.X, tainted)
			case *ast.CallExpr:
				checkSliceGrower(pass, nn, tainted)
				checkInternEscape(pass, nn, tainted)
			}
			return true
		})
	}
}

// taint is what the analyzer knows of one file's variables: which are
// bound to an accessor result (shared from the start), and which were
// handed to a keeping constructor (shared from the end of the first
// such call, in source order).
type taint struct {
	accessor map[types.Object]bool
	keptFrom map[types.Object]token.Pos
}

// taintedObjects finds variables bound directly to an accessor result
// (fs := r.Fields(); alts := u.Alts()[1:]) and variables passed, whole
// or sliced, to a keeping constructor, so writes through them can be
// traced. This is a local, flow-insensitive approximation: it catches
// the direct-binding idiom, not arbitrary aliasing, and "after the
// constructor call" means later in the file, not later in control
// flow.
func taintedObjects(pass *Pass, f *ast.File) taint {
	tt := taint{accessor: make(map[types.Object]bool), keptFrom: make(map[types.Object]token.Pos)}
	ast.Inspect(f, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.AssignStmt:
			if len(nn.Lhs) != len(nn.Rhs) {
				return true
			}
			for i, rhs := range nn.Rhs {
				if !isAccessorExpr(pass, rhs) {
					continue
				}
				if id, ok := nn.Lhs[i].(*ast.Ident); ok {
					if obj := pass.ObjectOf(id); obj != nil {
						tt.accessor[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			fn := calleeFunc(pass, nn)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != typesPkgPath || !keepingConstructors[fn.Name()] || len(nn.Args) == 0 {
				return true
			}
			arg := ast.Unparen(nn.Args[0])
			if se, ok := arg.(*ast.SliceExpr); ok {
				arg = ast.Unparen(se.X)
			}
			if id, ok := arg.(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil {
					if from, seen := tt.keptFrom[obj]; !seen || nn.End() < from {
						tt.keptFrom[obj] = nn.End()
					}
				}
			}
		}
		return true
	})
	return tt
}

// isAccessorExpr reports whether e is (possibly a slice of) a call to a
// types accessor method.
func isAccessorExpr(pass *Pass, e ast.Expr) bool {
	for {
		switch ee := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = ee.X
		case *ast.CallExpr:
			return isAccessorCall(pass, ee)
		default:
			return false
		}
	}
}

// isAccessorCall reports whether the call invokes Fields/Elems/Alts on
// a type declared in the protected types package.
func isAccessorCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	if fn == nil || !accessorNames[fn.Name()] || fn.Pkg() == nil {
		return false
	}
	return fn.Pkg().Path() == typesPkgPath && fn.Type().(*types.Signature).Recv() != nil
}

// taintedDesc describes e for diagnostics when it is (a slice of) a
// variable bound to an accessor result, or one used after a keeping
// constructor took its slice; otherwise it returns "".
func taintedDesc(pass *Pass, e ast.Expr, tt taint) string {
	e = ast.Unparen(e)
	if se, ok := e.(*ast.SliceExpr); ok {
		e = se.X
	}
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return ""
	}
	obj := pass.ObjectOf(id)
	if obj == nil {
		return ""
	}
	if tt.accessor[obj] {
		return id.Name + " (bound to a types accessor result)"
	}
	if from, ok := tt.keptFrom[obj]; ok && id.Pos() >= from {
		return id.Name + " (kept by the record types.NewRecordSorted built from it)"
	}
	return ""
}

// reportSharedWrite walks an l-value chain (e.g. r.Fields()[0].Type)
// and reports it if the chain passes through an index into an accessor
// slice.
func reportSharedWrite(pass *Pass, lhs ast.Expr, tainted taint) {
	for e := lhs; ; {
		switch ee := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			base := taintedDesc(pass, ee.X, tainted)
			if isAccessorExpr(pass, ee.X) {
				base = exprString(ee.X)
			}
			if base != "" {
				pass.ReportNode(lhs, "write into %s mutates a shared immutable type; rebuild with a types constructor instead", base)
				return
			}
			e = ee.X
		case *ast.SelectorExpr:
			e = ee.X
		case *ast.StarExpr:
			e = ee.X
		default:
			return
		}
	}
}

// checkSliceGrower flags append/copy calls whose destination is an
// accessor slice: append may write in place when capacity allows, and
// copy always writes through.
func checkSliceGrower(pass *Pass, call *ast.CallExpr, tainted taint) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	if !ok || (b.Name() != "append" && b.Name() != "copy") {
		return
	}
	dst := call.Args[0]
	desc := taintedDesc(pass, dst, tainted)
	if isAccessorExpr(pass, dst) {
		desc = exprString(dst)
	}
	if desc != "" {
		pass.ReportNode(call, "%s with destination %s may write into a shared immutable type; copy the slice first", b.Name(), desc)
	}
}

// checkInternEscape inspects one call: does any argument carry an
// accessor slice into a mutating parameter?
func checkInternEscape(pass *Pass, call *ast.CallExpr, tainted taint) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	for i, arg := range call.Args {
		desc := accessorDesc(pass, arg, tainted)
		if desc == "" {
			continue
		}
		if why, pname := mutatesArg(pass, fn, i); why != "" {
			pass.ReportNode(call, "%s escapes into %s of %s, which %s; copy the slice first",
				desc, pname, fn.Name(), why)
		}
	}
}

// accessorDesc describes the argument for diagnostics when it is an
// accessor result, a slice of one, or a tainted variable (whole or
// sliced); otherwise it returns "".
func accessorDesc(pass *Pass, arg ast.Expr, tainted taint) string {
	if isAccessorExpr(pass, arg) {
		return "accessor slice " + exprString(arg)
	}
	return taintedDesc(pass, arg, tainted)
}

// mutatesArg reports how fn may write through its i-th argument: a
// non-empty witness chain and the parameter's name. Module functions
// answer through their summaries; sort/slices in-place mutators are
// recognized directly (their bodies are outside the analyzed set).
func mutatesArg(pass *Pass, fn *types.Func, i int) (why, pname string) {
	if pkg := fn.Pkg().Path(); (pkg == "sort" || pkg == "slices") && sortMutators[fn.Name()] && i == 0 {
		return "sorts it in place", "the slice argument"
	}
	if typeMutAllowed[fn.Pkg().Path()] {
		return "", "" // constructor packages own the invariant
	}
	sum := pass.Sums.Of(fn)
	if sum == nil {
		return "", ""
	}
	sig := fn.Type().(*types.Signature)
	j := i
	if n := sig.Params().Len(); j >= n {
		if !sig.Variadic() || n == 0 {
			return "", ""
		}
		j = n - 1
	}
	if !sum.MutatesParam(j) {
		return "", ""
	}
	return sum.MutParamWhy[j], "parameter " + paramName(sum, j)
}
