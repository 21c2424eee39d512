package analyze

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolEscape guards the buffer-recycling contract of the pooled feed
// path (jsontext.ChunkPool + jsontext.LineCutter + mapreduce.Run, whose
// workers hand each finished item back to the feed's next function):
// once a buffer is handed back to its pool, the next Get may hand it to
// a concurrent owner, so the releasing code must be completely done
// with it. Two patterns break that contract:
//
//   - use-after-release: a variable is read, returned, stored or Put a
//     second time after being passed to the Put method of a pool-like
//     type — one whose method set has both Get and Put, which covers
//     sync.Pool and jsontext.ChunkPool — with no intervening
//     reassignment handing the variable a fresh buffer;
//   - stage aliasing: a map-stage literal passed to mapreduce.Run
//     returns a value aliasing its input item (the item itself, a
//     subslice, its address, or a composite holding one of those). The
//     engine hands the item back to next, which may recycle it, right
//     after the task's final attempt, so stage output sharing memory
//     with it escapes the stage that released it.
//
// Statement order within one function body approximates execution
// order, so a use that precedes the Put textually but follows it
// dynamically (a loop back-edge, a closure built earlier and called
// later) is not flagged — the same best-effort stance as goroleak.
// Deferred Puts run at function exit and do not poison the statements
// written after them, and a Put inside a nested function literal only
// poisons the rest of that literal. Calls and conversions in a stage's
// return value are assumed to copy (string(item) does; a helper that
// aliases its argument needs a lint:ignore with the ownership story).
var PoolEscape = &Analyzer{
	Name: "poolescape",
	Doc:  "pooled buffer used after release, or pipeline stage output aliases the chunk the engine releases",
	Run:  runPoolEscape,
}

// releaseDrivers are the engine entry points that hand their input
// items back for recycling after the final map attempt: package path ->
// function name -> index of the map-stage argument (whose second
// parameter is the released item). mapreduce.Run hands every item back
// to its next function, the feed that may recycle it.
var releaseDrivers = map[string]map[string]int{
	"repro/internal/mapreduce": {"Run": 2},
}

func runPoolEscape(pass *Pass) {
	for _, f := range pass.Files {
		async := asyncCalls(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.FuncDecl:
				if nn.Body != nil {
					checkPoolScope(pass, nn.Body, async)
				}
			case *ast.FuncLit:
				checkPoolScope(pass, nn.Body, async)
			case *ast.CallExpr:
				checkReleasedStage(pass, nn)
			}
			return true
		})
	}
}

// asyncCalls collects the call expressions hanging off defer and go
// statements: a deferred Put runs at function exit, so it must not
// poison the statements textually after it.
func asyncCalls(f *ast.File) map[*ast.CallExpr]bool {
	calls := make(map[*ast.CallExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.DeferStmt:
			calls[nn.Call] = true
		case *ast.GoStmt:
			calls[nn.Call] = true
		}
		return true
	})
	return calls
}

// checkPoolScope finds pool Put calls in the straight-line body of one
// function (nested literals are their own scopes) and flags later uses
// of the released variable within that body.
func checkPoolScope(pass *Pass, body *ast.BlockStmt, async map[*ast.CallExpr]bool) {
	walkScope(body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || async[call] || !isPoolPut(pass, call) {
			return
		}
		obj, ok := rootObject(pass, call.Args[0]).(*types.Var)
		if !ok || obj.Pkg() == nil || obj.Parent() == obj.Pkg().Scope() {
			return // only locals: order across functions is unknowable
		}
		checkUseAfterPut(pass, body, call, obj)
	})
}

// walkScope visits the nodes of body without descending into nested
// function literals.
func walkScope(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// checkUseAfterPut flags uses of obj positioned after the Put call,
// unless a reassignment in between handed the variable a fresh buffer.
// Uses inside nested literals declared after the Put are flagged too:
// such a closure retains a buffer the pool may already have recycled.
func checkUseAfterPut(pass *Pass, body *ast.BlockStmt, put *ast.CallExpr, obj *types.Var) {
	// Clears take effect at the assignment's end (after the RHS is
	// evaluated), so `b = append(b, x)` after Put(b) still flags the
	// RHS read; the LHS targets themselves are writes, not uses.
	var clears []token.Pos
	lhs := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, t := range as.Lhs {
			if id, ok := ast.Unparen(t).(*ast.Ident); ok && pass.ObjectOf(id) == obj {
				lhs[id] = true
				clears = append(clears, as.End())
			}
		}
		return true
	})

	cleared := func(use token.Pos) bool {
		for _, c := range clears {
			if put.End() < c && c <= use {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || lhs[id] || pass.ObjectOf(id) != obj {
			return true
		}
		if id.Pos() > put.End() && !cleared(id.Pos()) {
			pass.ReportNode(id, "%s is used after being released to the pool; a recycled buffer may already have a new owner", obj.Name())
		}
		return true
	})
}

// isPoolPut reports whether the call is the single-argument Put method
// of a pool-like type: a receiver whose method set also has Get.
func isPoolPut(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Put" || len(call.Args) != 1 {
		return false
	}
	fn, _ := pass.ObjectOf(sel.Sel).(*types.Func)
	if fn == nil {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	return hasMethod(sig.Recv().Type(), "Get")
}

// hasMethod reports whether the (possibly pointer) type has a method of
// the given exported name anywhere in its method set.
func hasMethod(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, nil, name)
	_, isFunc := obj.(*types.Func)
	return isFunc
}

// checkReleasedStage flags map-stage literals handed to a releasing
// driver whose return values alias the released item parameter.
func checkReleasedStage(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	idx, ok := releaseDrivers[fn.Pkg().Path()][fn.Name()]
	if !ok || len(call.Args) <= idx {
		return
	}
	lit, ok := call.Args[idx].(*ast.FuncLit)
	if !ok {
		return
	}
	var params []*ast.Ident
	for _, field := range lit.Type.Params.List {
		params = append(params, field.Names...)
	}
	// The map stage is func(ctx, item): the released item is the second
	// parameter; a blank item cannot be aliased.
	if len(params) < 2 || params[1].Name == "_" {
		return
	}
	item := pass.ObjectOf(params[1])
	if item == nil {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a nested literal's returns are not the stage's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if aliasesObject(pass, res, item) {
				pass.ReportNode(res, "stage output aliases released item %s; the engine recycles it after the attempt, so copy what the result keeps", item.Name())
			}
		}
		return true
	})
}

// aliasesObject reports whether evaluating e yields memory shared with
// the variable obj: the variable itself, a subslice, its address, a
// dereference, or a composite literal embedding one of those. Calls and
// conversions are assumed to copy.
func aliasesObject(pass *Pass, e ast.Expr, obj types.Object) bool {
	switch ee := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.ObjectOf(ee) == obj
	case *ast.SliceExpr:
		return aliasesObject(pass, ee.X, obj)
	case *ast.StarExpr:
		return aliasesObject(pass, ee.X, obj)
	case *ast.UnaryExpr:
		return ee.Op == token.AND && aliasesObject(pass, ee.X, obj)
	case *ast.CompositeLit:
		for _, el := range ee.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if aliasesObject(pass, el, obj) {
				return true
			}
		}
	}
	return false
}
