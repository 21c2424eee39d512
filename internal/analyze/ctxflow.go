package analyze

import (
	"go/ast"
)

// CtxFlow guards the cancellation contract the map-reduce and pipeline
// layers promise (and their chaos tests pin): cancel the context and
// every worker exits, no goroutine leaks, no work continues against a
// dead deadline. That contract breaks silently whenever a function in
// the call path swaps the caller's context for a fresh
// context.Background() — everything below that point becomes
// uncancellable. Three rules:
//
//  1. A function that receives a context.Context must not construct
//     context.Background() or context.TODO(); pass the received ctx
//     (or a context derived from it) down instead. The transitive
//     form — calling a ctx-less module function that mints a
//     Background somewhere below, detected via the FactBackground
//     summaries — is reported at the call site with the witness chain.
//
//  2. In package main, only func main may mint the root context
//     (typically via signal.NotifyContext); any other function
//     constructing Background hides the program's cancellation root
//     in a corner — thread the context from main instead.
//
//  3. A loop that spawns goroutines inside a context-carrying function
//     must observe cancellation: some context's Done() channel has to
//     be consulted in the loop or the spawned body, or the workers
//     outlive the caller the chaos tests kill.
//
// Excused: func main minting its root context; deriving
// WithCancel/WithTimeout from the received ctx (no Background
// involved); functions without a ctx parameter outside package main
// (libraries that never see a context are a plumbing gap, not a drop);
// and goroutine loops whose body or spawned literal selects on any
// context-typed value's Done() — a derived runCtx counts just as the
// parameter itself does.
var CtxFlow = &Analyzer{
	Name:           "ctxflow",
	Doc:            "received context must flow down; goroutine loops must observe cancellation",
	Run:            runCtxFlow,
	NeedsSummaries: true,
}

func runCtxFlow(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			ctxParam := ctxParamName(pass, fd)
			if ctxParam != "" {
				checkCtxBody(pass, fd, ctxParam)
			} else if pass.Pkg.Name() == "main" && fd.Name.Name != "main" && fd.Recv == nil {
				checkMainRoot(pass, fd)
			}
			return false // FuncDecls are top-level; no nested decls
		})
	}
}

// ctxParamName returns the name of fd's context.Context parameter, or
// "" when there is none (or it is blank — an explicitly discarded
// context is a statement, not a drop).
func ctxParamName(pass *Pass, fd *ast.FuncDecl) string {
	for _, field := range fd.Type.Params.List {
		if t := pass.TypeOf(field.Type); t == nil || !isContextType(t) {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return name.Name
			}
		}
	}
	return ""
}

// checkCtxBody enforces rules 1 and 3 inside a context-carrying
// function.
func checkCtxBody(pass *Pass, fd *ast.FuncDecl, ctxParam string) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.CallExpr:
			checkCtxCall(pass, nn, ctxParam)
		case *ast.ForStmt:
			checkGoroutineLoop(pass, nn.Body)
		case *ast.RangeStmt:
			checkGoroutineLoop(pass, nn.Body)
		}
		return true
	})
}

// checkCtxCall enforces rule 1 at one call site.
func checkCtxCall(pass *Pass, call *ast.CallExpr, ctxParam string) {
	fn := calleeFunc(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	if fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
		pass.ReportNode(call, "function receives %s but calls context.%s(); pass %s down so cancellation reaches this path",
			ctxParam, fn.Name(), ctxParam)
		return
	}
	// Transitive: a ctx-less module callee that mints a Background
	// below. Callees that take a context themselves own their drop and
	// are flagged where it happens.
	sum := pass.Sums.Of(fn)
	if sum == nil || sum.Facts&FactBackground == 0 || hasCtxParam(sum.node) {
		return
	}
	pass.ReportNode(call, "function receives %s but %s %s; plumb %s through instead",
		ctxParam, fn.Name(), sum.BackgroundWhy, ctxParam)
}

// checkMainRoot enforces rule 2: in package main, non-main functions
// must not mint root contexts.
func checkMainRoot(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			return true
		}
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			pass.ReportNode(call, "context.%s() outside func main: mint the root context in main (signal.NotifyContext) and thread it into %s",
				fn.Name(), fd.Name.Name)
		}
		return true
	})
}

// checkGoroutineLoop enforces rule 3: a loop body that launches
// goroutines must consult some context's Done() in the loop or the
// spawned literals.
func checkGoroutineLoop(pass *Pass, body *ast.BlockStmt) {
	var firstGo *ast.GoStmt
	observesDone := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.GoStmt:
			if firstGo == nil {
				firstGo = nn
			}
		case *ast.CallExpr:
			if isDoneCall(pass, nn) {
				observesDone = true
			}
		}
		return true
	})
	if firstGo == nil || observesDone {
		return
	}
	pass.ReportNode(firstGo, "goroutine spawned in a loop without observing any context's Done(); cancelled callers leak these workers")
}

// isDoneCall reports whether the call is <context-typed value>.Done().
func isDoneCall(pass *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" {
		return false
	}
	t := pass.TypeOf(sel.X)
	return t != nil && isContextType(t)
}
