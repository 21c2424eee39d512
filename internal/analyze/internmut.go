package analyze

import (
	"go/ast"
	"go/types"
)

// InternMut guards the immutability of the schema type language. Values
// of repro/internal/types.Type are canonicalized (interned) at
// construction and shared freely afterwards: fusion reuses subtrees of
// its inputs, the schema repository caches fused results, and
// map-reduce workers hand types across goroutines without copying. All
// of that is sound only because no one writes into a type after
// construction — the children-are-interned, equality-is-shallow
// invariant of the hash-consing layer.
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
// Excused: read-only consumption (iteration, len, rendering), passing
// accessor slices into the constructor packages' own entry points
// (types.NewRecord copies its input), and call targets with no static
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

// taintedObjects finds variables bound directly to an accessor result
// (fs := r.Fields(); alts := u.Alts()[1:]) so writes through them can
// be traced. This is a local, flow-insensitive approximation: it
// catches the direct-binding idiom, not arbitrary aliasing.
func taintedObjects(pass *Pass, f *ast.File) map[types.Object]bool {
	tainted := make(map[types.Object]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isAccessorExpr(pass, rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := pass.ObjectOf(id); obj != nil {
					tainted[obj] = true
				}
			}
		}
		return true
	})
	return tainted
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

// isTaintedIdent reports whether e is a variable bound to an accessor
// result.
func isTaintedIdent(pass *Pass, e ast.Expr, tainted map[types.Object]bool) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.ObjectOf(id)
	return obj != nil && tainted[obj]
}

// reportSharedWrite walks an l-value chain (e.g. r.Fields()[0].Type)
// and reports it if the chain passes through an index into an accessor
// slice.
func reportSharedWrite(pass *Pass, lhs ast.Expr, tainted map[types.Object]bool) {
	for e := lhs; ; {
		switch ee := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			base := ""
			if isAccessorExpr(pass, ee.X) {
				base = exprString(ee.X)
			} else if isTaintedIdent(pass, ee.X, tainted) {
				base = exprString(ast.Unparen(ee.X)) + " (bound to a types accessor result)"
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
func checkSliceGrower(pass *Pass, call *ast.CallExpr, tainted map[types.Object]bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || len(call.Args) == 0 {
		return
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	if !ok || (b.Name() != "append" && b.Name() != "copy") {
		return
	}
	dst := call.Args[0]
	if isAccessorExpr(pass, dst) || isTaintedIdent(pass, dst, tainted) {
		pass.ReportNode(call, "%s with destination %s may write into a shared immutable type; copy the slice first", b.Name(), exprString(dst))
	}
}

// checkInternEscape inspects one call: does any argument carry an
// accessor slice into a mutating parameter?
func checkInternEscape(pass *Pass, call *ast.CallExpr, tainted map[types.Object]bool) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	for i, arg := range call.Args {
		if !isAccessorArg(pass, arg, tainted) {
			continue
		}
		if why, pname := mutatesArg(pass, fn, i); why != "" {
			pass.ReportNode(call, "%s escapes into %s of %s, which %s; copy the slice first",
				accessorDesc(pass, arg), pname, fn.Name(), why)
		}
	}
}

// isAccessorArg reports whether the argument expression is an accessor
// result, a slice of one, or a variable bound to one.
func isAccessorArg(pass *Pass, arg ast.Expr, tainted map[types.Object]bool) bool {
	if isAccessorExpr(pass, arg) {
		return true
	}
	e := ast.Unparen(arg)
	if se, ok := e.(*ast.SliceExpr); ok {
		e = se.X
	}
	return isTaintedIdent(pass, e, tainted)
}

// accessorDesc renders the argument for diagnostics.
func accessorDesc(pass *Pass, arg ast.Expr) string {
	if isAccessorExpr(pass, arg) {
		return "accessor slice " + exprString(arg)
	}
	return exprString(arg) + " (bound to a types accessor result)"
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
		return "", "" // constructor packages own the invariant (and copy their inputs)
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
