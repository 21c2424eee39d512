package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Pass 1 of the interprocedural framework: one summary per declared
// function, computed locally and then propagated over the call graph to
// a fixpoint. Facts are monotone bits (a function never loses a fact as
// more information arrives), so the fixpoint is unique regardless of
// iteration strategy; iterating in the graph's deterministic order also
// makes the recorded first witness — the "why" chain shown in
// diagnostics — byte-stable across runs.
//
// The facts:
//
//   - Nondet: the function may read a source of nondeterminism —
//     time.Now/Since/Until, anything in math/rand, runtime goroutine
//     counts, or a map iteration whose outcome is order-sensitive
//     (append to an outer slice never sorted, emission, channel send,
//     or a capacity-guarded write, where which entries win depends on
//     iteration order).
//   - MutGlobal: the function may write package-level state.
//   - MutRecv / MutParams: the function may write through its receiver
//     or a given parameter (element writes, in-place append/copy/sort,
//     map writes and deletes) — visible to the caller via aliasing.
//   - Background: the function constructs context.Background() or
//     context.TODO(), directly or via callees that do not themselves
//     take a context (callees with a ctx parameter own the fact and
//     are flagged directly by ctxflow).
type Fact uint8

const (
	FactNondet Fact = 1 << iota
	FactMutGlobal
	FactBackground
)

// FuncSummary is the propagated fact set of one declared function.
type FuncSummary struct {
	node *funcNode

	Facts   Fact
	MutRecv bool
	// MutParams is indexed by declared parameter position.
	MutParams []bool

	// First-witness positions and descriptions per fact, for
	// diagnostics. The position is always inside the summarized
	// function (a local source or the call that imported the fact).
	NondetPos     token.Pos
	NondetWhy     string
	MutGlobalPos  token.Pos
	MutGlobalWhy  string
	BackgroundPos token.Pos
	BackgroundWhy string
	MutRecvPos    token.Pos
	MutRecvWhy    string
	MutParamPos   []token.Pos
	MutParamWhy   []string
}

// Func returns the summarized function object.
func (s *FuncSummary) Func() *types.Func { return s.node.fn }

// Decl returns the summarized function's declaration.
func (s *FuncSummary) Decl() *ast.FuncDecl { return s.node.decl }

// MutatesParam reports whether the function may write through its
// index-th declared parameter.
func (s *FuncSummary) MutatesParam(i int) bool {
	return i >= 0 && i < len(s.MutParams) && s.MutParams[i]
}

// Summaries holds pass 1's result for one Check invocation. Facts
// propagate across exactly the package set that was analyzed together:
// running repolint over ./... sees every cross-package call chain,
// while a single-package run only sees that package's bodies.
type Summaries struct {
	graph *callGraph
	byFn  map[*types.Func]*FuncSummary
}

// Of returns the summary for fn, or nil when fn was not declared in the
// analyzed package set (stdlib, interface methods, func values).
func (s *Summaries) Of(fn *types.Func) *FuncSummary {
	if s == nil || fn == nil {
		return nil
	}
	return s.byFn[fn]
}

// ComputeSummaries runs pass 1 over the package set: local fact
// extraction per declaration, then transitive propagation to a
// fixpoint.
func ComputeSummaries(pkgs []*Package) *Summaries {
	g := buildCallGraph(pkgs)
	s := &Summaries{graph: g, byFn: make(map[*types.Func]*FuncSummary, len(g.order))}
	for _, n := range g.order {
		sum := &FuncSummary{
			node:        n,
			MutParams:   make([]bool, len(n.paramObjs)),
			MutParamPos: make([]token.Pos, len(n.paramObjs)),
			MutParamWhy: make([]string, len(n.paramObjs)),
		}
		s.byFn[n.fn] = sum
		localFacts(sum)
	}
	s.propagate()
	return s
}

// --- local fact extraction ---

// localFacts scans one declaration body (function literals included —
// a literal's effects are conservatively charged to the enclosing
// declaration) for fact sources.
func localFacts(sum *FuncSummary) {
	n := sum.node
	p := &Pass{Fset: n.pkg.Fset, Files: n.pkg.Files, Pkg: n.pkg.Types, Info: n.pkg.Info}
	body := n.decl.Body
	sorted := sortedSlices(p, body)

	ast.Inspect(body, func(node ast.Node) bool {
		switch nn := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range nn.Lhs {
				sum.recordWrite(p, lhs, nn.Tok == token.DEFINE)
			}
		case *ast.IncDecStmt:
			sum.recordWrite(p, nn.X, false)
		case *ast.CallExpr:
			sum.recordCallFacts(p, nn)
		case *ast.RangeStmt:
			if t := p.TypeOf(nn.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					sum.recordMapRange(p, nn, sorted)
				}
			}
		}
		return true
	})
}

// recordWrite classifies one l-value write. Rebinding a local or a
// parameter identifier is invisible to the caller; writes through a
// pointer, slice, or map rooted at the receiver, a parameter, or a
// global are not.
func (sum *FuncSummary) recordWrite(p *Pass, lhs ast.Expr, define bool) {
	n := sum.node
	if define {
		return // x := ... declares, it cannot mutate caller-visible state
	}
	root := n.exprRoot(p, lhs)
	if root.kind == rootNone {
		return
	}
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		// A bare identifier: assignment rebinds locals and parameters
		// (invisible), but stores into package-level variables.
		obj := p.ObjectOf(id)
		if v, isVar := obj.(*types.Var); isVar && v.Parent() == n.pkg.Types.Scope() {
			sum.setMutation(root, lhs.Pos(), fmt.Sprintf("writes package-level %s", id.Name))
		}
		return
	}
	if !writeReachesCaller(p, lhs) {
		return
	}
	sum.setMutation(root, lhs.Pos(), fmt.Sprintf("writes %s", exprString(lhs)))
}

// writeReachesCaller reports whether a chained l-value write escapes the
// local frame: the chain passes through an index, a dereference, or a
// selector on a pointer — anything else mutates a local copy.
func writeReachesCaller(p *Pass, lhs ast.Expr) bool {
	e := lhs
	for {
		switch ee := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			return true
		case *ast.StarExpr:
			return true
		case *ast.SelectorExpr:
			if t := p.TypeOf(ee.X); t != nil {
				if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
					return true
				}
			}
			e = ee.X
		default:
			return false
		}
	}
}

// setMutation records a mutation fact against the classified root.
func (sum *FuncSummary) setMutation(root argRoot, pos token.Pos, why string) {
	switch root.kind {
	case rootRecv:
		if !sum.MutRecv {
			sum.MutRecv, sum.MutRecvPos, sum.MutRecvWhy = true, pos, why
		}
	case rootParam:
		if root.index < len(sum.MutParams) && !sum.MutParams[root.index] {
			sum.MutParams[root.index] = true
			sum.MutParamPos[root.index], sum.MutParamWhy[root.index] = pos, why
		}
	case rootGlobal:
		if sum.Facts&FactMutGlobal == 0 {
			sum.Facts |= FactMutGlobal
			sum.MutGlobalPos, sum.MutGlobalWhy = pos, why
		}
	}
}

// recordCallFacts handles the fact sources that arrive via calls:
// builtin growers and the known standard-library tables.
func (sum *FuncSummary) recordCallFacts(p *Pass, call *ast.CallExpr) {
	n := sum.node
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := p.ObjectOf(id).(*types.Builtin); isB {
			switch b.Name() {
			case "append", "copy", "delete":
				if len(call.Args) > 0 {
					root := n.exprRoot(p, call.Args[0])
					sum.setMutation(root, call.Pos(), fmt.Sprintf("%s into %s", b.Name(), exprString(call.Args[0])))
				}
			}
			return
		}
	}
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	pkgPath, name := fn.Pkg().Path(), fn.Name()
	switch {
	case nondetCalls[pkgPath+"."+name] || nondetPkgs[pkgPath]:
		if sum.Facts&FactNondet == 0 {
			sum.Facts |= FactNondet
			sum.NondetPos, sum.NondetWhy = call.Pos(), fmt.Sprintf("calls %s.%s", pkgPath, name)
		}
	case pkgPath == "context" && (name == "Background" || name == "TODO"):
		if sum.Facts&FactBackground == 0 {
			sum.Facts |= FactBackground
			sum.BackgroundPos, sum.BackgroundWhy = call.Pos(), fmt.Sprintf("calls context.%s", name)
		}
	case (pkgPath == "sort" || pkgPath == "slices") && sortMutators[name]:
		if len(call.Args) > 0 {
			root := n.exprRoot(p, call.Args[0])
			sum.setMutation(root, call.Pos(), fmt.Sprintf("sorts %s in place via %s.%s", exprString(call.Args[0]), pkgPath, name))
		}
	}
}

// nondetCalls are fully qualified standard-library functions whose
// result differs run to run.
var nondetCalls = map[string]bool{
	"time.Now":                true,
	"time.Since":              true,
	"time.Until":              true,
	"runtime.NumGoroutine":    true,
	"runtime.ReadMemStats":    true,
	"os.Getpid":               true,
	"runtime/pprof.Lookup":    true,
	"runtime/trace.IsEnabled": true,
}

// nondetPkgs taints every function of a package as nondeterministic.
var nondetPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
	"crypto/rand":  true,
}

// sortMutators are sort/slices functions that write their first
// argument in place.
var sortMutators = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true, "Stable": true,
	"Slice": true, "SliceStable": true, "Strings": true, "Ints": true,
	"Float64s": true, "Reverse": true,
}

// recordMapRange charges the enclosing function with FactNondet when a
// map iteration's outcome is order-sensitive. The rules mirror the
// nondetmap analyzer (append to an outer never-sorted slice, emission,
// channel send) plus one summary-only pattern: a write to outer state
// guarded by a condition on len(...) of outer state — a capacity cap,
// where map order decides which entries win the remaining slots.
func (sum *FuncSummary) recordMapRange(p *Pass, rs *ast.RangeStmt, sorted map[string]bool) {
	setNondet := func(pos token.Pos, why string) {
		if sum.Facts&FactNondet == 0 {
			sum.Facts |= FactNondet
			sum.NondetPos, sum.NondetWhy = pos, why
		}
	}
	outer := func(e ast.Expr) bool {
		obj := rootObject(p, e)
		return obj != nil && !withinNode(obj.Pos(), rs)
	}
	var ifStack []*ast.IfStmt
	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		switch nn := node.(type) {
		case *ast.IfStmt:
			ifStack = append(ifStack, nn)
			if nn.Init != nil {
				ast.Inspect(nn.Init, walk)
			}
			ast.Inspect(nn.Body, walk)
			if nn.Else != nil {
				ast.Inspect(nn.Else, walk)
			}
			ifStack = ifStack[:len(ifStack)-1]
			return false
		case *ast.SendStmt:
			setNondet(nn.Pos(), "sends on a channel inside map iteration")
		case *ast.AssignStmt:
			for i, rhs := range nn.Rhs {
				if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(p, call) && i < len(nn.Lhs) {
					lhs := nn.Lhs[i]
					if outer(lhs) && !sorted[exprString(lhs)] {
						setNondet(nn.Pos(), fmt.Sprintf("appends to %s under map iteration without a later sort", exprString(lhs)))
					}
				}
			}
			if nn.Tok != token.DEFINE && capGuarded(p, ifStack, rs) {
				for _, lhs := range nn.Lhs {
					if outer(lhs) {
						setNondet(nn.Pos(), fmt.Sprintf("cap-guarded write to %s under map iteration (map order decides which entries win)", exprString(lhs)))
					}
				}
			}
		case *ast.CallExpr:
			if fn := calleeFunc(p, nn); fn != nil && emitNames[fn.Name()] {
				var dest ast.Expr
				if sel, ok := nn.Fun.(*ast.SelectorExpr); ok && fn.Type().(*types.Signature).Recv() != nil {
					dest = sel.X
				} else if len(nn.Args) > 0 {
					dest = nn.Args[0]
				}
				if dest == nil || outer(dest) {
					setNondet(nn.Pos(), fmt.Sprintf("emits via %s inside map iteration", fn.Name()))
				}
			}
		}
		return true
	}
	ast.Inspect(rs.Body, walk)
}

// capGuarded reports whether any enclosing if condition inside the
// range compares len(...) of loop-outer state — the bounded-admission
// shape.
func capGuarded(p *Pass, ifStack []*ast.IfStmt, rs *ast.RangeStmt) bool {
	for _, is := range ifStack {
		found := false
		ast.Inspect(is.Cond, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				return true
			}
			if b, isB := p.ObjectOf(id).(*types.Builtin); isB && b.Name() == "len" {
				if obj := rootObject(p, call.Args[0]); obj != nil && !withinNode(obj.Pos(), rs) {
					found = true
					return false
				}
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

// --- propagation ---

// propagate runs the transitive closure: facts flow from callees to
// callers, mutation facts flow through the argument-root mapping, until
// nothing changes. Monotone bits guarantee termination and a unique
// result.
func (s *Summaries) propagate() {
	for changed := true; changed; {
		changed = false
		for _, n := range s.graph.order {
			caller := s.byFn[n.fn]
			for _, cs := range n.calls {
				callee := s.byFn[cs.callee]
				if callee == nil {
					continue // stdlib or out-of-set: handled by local tables
				}
				if s.importFacts(caller, callee, cs) {
					changed = true
				}
			}
		}
	}
}

// importFacts pulls one callee's facts into the caller across one call
// site; reports whether anything new arrived.
func (s *Summaries) importFacts(caller, callee *FuncSummary, cs callSite) bool {
	changed := false
	name := callee.node.fn.Name()

	if callee.Facts&FactNondet != 0 && caller.Facts&FactNondet == 0 {
		caller.Facts |= FactNondet
		caller.NondetPos = cs.pos
		caller.NondetWhy = chainWhy(name, callee.NondetWhy)
		changed = true
	}
	if callee.Facts&FactMutGlobal != 0 && caller.Facts&FactMutGlobal == 0 {
		caller.Facts |= FactMutGlobal
		caller.MutGlobalPos = cs.pos
		caller.MutGlobalWhy = chainWhy(name, callee.MutGlobalWhy)
		changed = true
	}
	// Background propagates only through callees that do not themselves
	// receive a context — one that does owns the drop and is flagged
	// directly by ctxflow.
	if callee.Facts&FactBackground != 0 && caller.Facts&FactBackground == 0 && !hasCtxParam(callee.node) {
		caller.Facts |= FactBackground
		caller.BackgroundPos = cs.pos
		caller.BackgroundWhy = chainWhy(name, callee.BackgroundWhy)
		changed = true
	}

	// Mutation of the callee's receiver/parameters lands on whatever
	// the caller passed there.
	if callee.MutRecv && cs.recv.kind != rootNone {
		if s.liftMutation(caller, cs.recv, cs.pos, chainWhy(name, callee.MutRecvWhy)) {
			changed = true
		}
	}
	nParams := len(callee.MutParams)
	variadic := callee.node.fn.Type().(*types.Signature).Variadic()
	for i, root := range cs.args {
		if root.kind == rootNone {
			continue
		}
		j := i
		if j >= nParams {
			if !variadic || nParams == 0 {
				continue
			}
			j = nParams - 1
		}
		if callee.MutParams[j] {
			if s.liftMutation(caller, root, cs.pos, chainWhy(name, callee.MutParamWhy[j])) {
				changed = true
			}
		}
	}
	return changed
}

// liftMutation records a propagated mutation fact on the caller;
// reports whether it was new.
func (s *Summaries) liftMutation(caller *FuncSummary, root argRoot, pos token.Pos, why string) bool {
	switch root.kind {
	case rootRecv:
		if caller.MutRecv {
			return false
		}
	case rootParam:
		if root.index >= len(caller.MutParams) || caller.MutParams[root.index] {
			return false
		}
	case rootGlobal:
		if caller.Facts&FactMutGlobal != 0 {
			return false
		}
	default:
		return false
	}
	caller.setMutation(root, pos, why)
	return true
}

// chainWhy builds the witness chain shown in diagnostics, bounded so
// deep chains stay readable.
func chainWhy(callee, inner string) string {
	const maxWhy = 220
	why := fmt.Sprintf("calls %s, which %s", callee, inner)
	if len(why) > maxWhy {
		why = why[:maxWhy] + "..."
	}
	return why
}

// hasCtxParam reports whether the declaration takes a context.Context
// parameter.
func hasCtxParam(n *funcNode) bool {
	sig, ok := n.fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
