package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NondetMap guards the repository's byte-for-byte determinism claim:
// two runs over the same input must render identical schemas, tables
// and profiles (DESIGN.md §1). Go randomizes map iteration order, so a
// `range` over a map whose body performs an order-sensitive operation —
// appending to a slice declared outside the loop, sending on a channel,
// or emitting through a writer — produces output that differs from run
// to run.
//
// The safe idiom is to collect the keys, sort them, and iterate the
// sorted slice. The analyzer recognizes the collection step: an append
// inside a map range is not reported when the destination slice is
// later passed to a sort call (sort.* or slices.*) in the same
// function. Order-insensitive bodies — counting, summing, inserting
// into another map — are never reported.
var NondetMap = &Analyzer{
	Name: "nondetmap",
	Doc:  "map iteration with an order-sensitive body (append/send/emit) and no sort",
	Run:  runNondetMap,
}

// emitNames are method/function names that write output in call order.
var emitNames = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Print":       true,
	"Printf":      true,
	"Println":     true,
	"Fprint":      true,
	"Fprintf":     true,
	"Fprintln":    true,
	"Encode":      true,
}

func runNondetMap(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFuncMapRanges(pass, fn.Body)
				}
				return false
			case *ast.FuncLit:
				// Only reached for package-level function literals
				// (vars); literals inside declarations are covered by
				// the FuncDecl walk above.
				checkFuncMapRanges(pass, fn.Body)
				return false
			}
			return true
		})
	}
}

// checkFuncMapRanges analyzes one function body: find map ranges, flag
// order-sensitive operations in their bodies, and excuse appends whose
// destination is sorted somewhere in the same function.
func checkFuncMapRanges(pass *Pass, body *ast.BlockStmt) {
	sorted := sortedSlices(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		checkMapRangeBody(pass, rs, sorted)
		return true
	})
}

// sortedSlices collects the printed form of every expression passed as
// the first argument to a sort.* or slices.* call in the body.
func sortedSlices(pass *Pass, body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		out[exprString(call.Args[0])] = true
		return true
	})
	return out
}

// checkMapRangeBody reports order-sensitive operations inside one map
// range body.
func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, sorted map[string]bool) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			// A function literal defined in the body runs when called,
			// not per iteration; don't descend.
			return false
		case *ast.SendStmt:
			pass.ReportNode(nn, "channel send inside map iteration: delivery order depends on map iteration order")
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rs, nn, sorted)
		case *ast.CallExpr:
			checkMapRangeEmit(pass, rs, nn)
		}
		return true
	})
}

// checkMapRangeAssign flags `dst = append(dst, ...)` where dst lives
// outside the loop and is never sorted in the enclosing function.
func checkMapRangeAssign(pass *Pass, rs *ast.RangeStmt, as *ast.AssignStmt, sorted map[string]bool) {
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || !isBuiltinAppend(pass, call) || i >= len(as.Lhs) {
			continue
		}
		lhs := as.Lhs[i]
		switch lhs.(type) {
		case *ast.Ident, *ast.SelectorExpr:
		default:
			continue // index assignment etc.: not the collection idiom
		}
		obj := rootObject(pass, lhs)
		if obj == nil || withinNode(obj.Pos(), rs) {
			continue // loop-local slice: per-iteration, order-insensitive
		}
		if sorted[exprString(lhs)] {
			continue // collect-then-sort idiom
		}
		pass.ReportNode(as, "append to %s inside map iteration without a later sort: element order depends on map iteration order", exprString(lhs))
	}
}

// checkMapRangeEmit flags calls that write output (Write*, Print*,
// Fprint*, Encode) to a destination living outside the loop.
func checkMapRangeEmit(pass *Pass, rs *ast.RangeStmt, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || !emitNames[fn.Name()] {
		return
	}
	// Find the destination: the receiver for methods, the first
	// argument for package-level functions (fmt.Fprintf(w, ...)), and
	// the implicit process stdout for fmt.Print*.
	var dest ast.Expr
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && fn.Type().(*types.Signature).Recv() != nil {
		dest = sel.X
	} else if len(call.Args) > 0 {
		dest = call.Args[0]
	}
	if dest != nil {
		obj := rootObject(pass, dest)
		if obj != nil && withinNode(obj.Pos(), rs) {
			return // per-iteration buffer: order-insensitive
		}
	}
	pass.ReportNode(call, "%s inside map iteration: output order depends on map iteration order", fn.Name())
}

// isBuiltinAppend reports whether the call is the append builtin.
func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// calleeFunc resolves a call's static callee, or nil for builtins,
// conversions and indirect calls.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.ObjectOf(id).(*types.Func)
	return fn
}

// rootObject returns the object of the base identifier of an l-value
// chain (x, x.f, x[i].f, *x, ...), or nil.
func rootObject(pass *Pass, e ast.Expr) types.Object {
	for {
		switch ee := e.(type) {
		case *ast.Ident:
			return pass.ObjectOf(ee)
		case *ast.SelectorExpr:
			// For pkg.Var selectors the root is the variable, not the
			// package name.
			if _, isPkg := pass.ObjectOf(rootIdent(ee.X)).(*types.PkgName); isPkg {
				return pass.ObjectOf(ee.Sel)
			}
			e = ee.X
		case *ast.IndexExpr:
			e = ee.X
		case *ast.StarExpr:
			e = ee.X
		case *ast.UnaryExpr:
			e = ee.X
		case *ast.ParenExpr:
			e = ee.X
		case *ast.CallExpr:
			e = ee.Fun
		default:
			return nil
		}
	}
}

// rootIdent returns the base identifier of a selector chain, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch ee := e.(type) {
		case *ast.Ident:
			return ee
		case *ast.SelectorExpr:
			e = ee.X
		case *ast.ParenExpr:
			e = ee.X
		default:
			return nil
		}
	}
}

// withinNode reports whether pos falls inside n's source range.
func withinNode(pos token.Pos, n ast.Node) bool {
	return pos != token.NoPos && n.Pos() <= pos && pos < n.End()
}
