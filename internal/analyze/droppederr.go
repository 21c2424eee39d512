package analyze

import (
	"go/ast"
	"go/types"
)

// DroppedErr guards the I/O boundary: a schema repository that silently
// fails to persist, a CLI that truncates output on a full disk, or a
// codec that half-decodes are all worse than an error. The analyzer
// reports calls to functions and methods of the packages encoding/json,
// io and os whose error result is discarded — as a bare expression
// statement, behind `go`/`defer` (the results of a deferred call are
// always dropped), or assigned to the blank identifier.
//
// The scope is deliberately the serialization and file-handling
// packages this repository's correctness depends on, not every
// error-returning call: fmt printing to stdout, strings.Builder writes
// and similar never-fail or best-effort calls stay out of the way.
// Legitimate discards — closing a read-only file on an error path, for
// instance — should carry a lint:ignore with the justification.
var DroppedErr = &Analyzer{
	Name: "droppederr",
	Doc:  "discarded error result from an encoding/json, io or os call",
	Run:  runDroppedErr,
}

// droppedErrPkgs are the packages whose error results must be consumed.
var droppedErrPkgs = map[string]bool{
	"encoding/json": true,
	"io":            true,
	"os":            true,
}

func runDroppedErr(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.ExprStmt:
				if call, ok := nn.X.(*ast.CallExpr); ok {
					checkDiscardedCall(pass, call, "discarded")
				}
				return false // the call is handled; don't re-visit it
			case *ast.DeferStmt:
				checkDiscardedCall(pass, nn.Call, "dropped by defer")
				return true // descend: argument expressions may contain calls
			case *ast.GoStmt:
				checkDiscardedCall(pass, nn.Call, "dropped by go")
				return true
			case *ast.AssignStmt:
				checkBlankAssign(pass, nn)
			}
			return true
		})
	}
}

// checkDiscardedCall reports the call if it returns an error from a
// guarded package and that error goes nowhere.
func checkDiscardedCall(pass *Pass, call *ast.CallExpr, how string) {
	fn := guardedCallee(pass, call)
	if fn == nil {
		return
	}
	pass.ReportNode(call, "error result of %s.%s %s", fn.Pkg().Name(), fn.Name(), how)
}

// checkBlankAssign reports assignments where every error result of a
// guarded call lands in the blank identifier.
func checkBlankAssign(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := guardedCallee(pass, call)
	if fn == nil {
		return
	}
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len() && i < len(as.Lhs); i++ {
		if !isErrorType(res.At(i).Type()) {
			continue
		}
		if id, ok := as.Lhs[i].(*ast.Ident); !ok || id.Name != "_" {
			return // at least one error result is captured
		}
	}
	pass.ReportNode(as, "error result of %s.%s assigned to _", fn.Pkg().Name(), fn.Name())
}

// guardedCallee resolves the call's static callee and returns it if it
// belongs to a guarded package and returns an error; nil otherwise.
func guardedCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil || !droppedErrPkgs[fn.Pkg().Path()] {
		return nil
	}
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return fn
		}
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
