package analyze

import (
	"go/ast"
	"go/types"
	"strings"
)

// MonoidPure guards the algebraic heart of the reproduction: schema
// fusion and the pipeline accumulators form a commutative monoid, and
// the map-reduce engine's byte-identical-under-any-partitioning promise
// (PAPER.md §5, DESIGN.md §1) holds only if the monoid operations are
// *pure* — no reads of nondeterministic state, no mutation visible
// outside the accumulator being built. A time.Now() or an unsorted map
// range two calls below Merge breaks the guarantee just as surely as
// one written inline, so this analyzer consumes the interprocedural
// summaries of summary.go and checks the roots transitively.
//
// Roots:
//
//   - the Merge and Fold methods of an accumulator-shaped type — a
//     named non-interface type whose pointer method set carries both
//     (the duck-typed form of pipeline.Accumulator) — and its Add
//     method when it declares one;
//   - every function or method of repro/internal/fusion whose name
//     involves fusing, simplifying or collapsing — the Fuse/Simplify
//     paths;
//   - every function or method of repro/internal/enrich whose name
//     involves merging, folding, unioning or absorbing — the
//     enrichment monoids and lattice ride the same reduction trees as
//     fusion, so their combine paths carry the same purity obligation
//     (their Observer hooks don't: observation mutates the lattice
//     being built, which is the receiver-mutation the analyzer excuses
//     at the accumulator roots anyway).
//
// What is excused, by construction: mutation of the root's own receiver
// (accumulating in place and memo caches are the point), allocation,
// and the collect-then-sort idiom (a sorted map range never acquires
// the nondet fact in the first place). What is reported: transitive
// nondeterminism (FactNondet), mutation of package-level state
// (FactMutGlobal), and mutation of the operation's arguments — a Merge
// that writes into its operand poisons a sibling partition's
// accumulator under retry or tree reduction.
var MonoidPure = &Analyzer{
	Name:           "monoidpure",
	Doc:            "accumulator and fusion operations must be transitively deterministic and externally pure",
	Run:            runMonoidPure,
	NeedsSummaries: true,
}

// fusionPkgPath is the package whose fuse/simplify paths are rooted.
const fusionPkgPath = "repro/internal/fusion"

// enrichPkgPath is the package whose merge/fold/union paths are rooted.
const enrichPkgPath = "repro/internal/enrich"

// nameRoots maps a rooted package to the lowercase name fragments that
// mark a function as a combine path there.
var nameRoots = map[string][]string{
	fusionPkgPath: {"fuse", "simplify", "collapse"},
	enrichPkgPath: {"merge", "fold", "union", "absorb"},
}

func runMonoidPure(pass *Pass) {
	if pass.Sums == nil {
		return
	}
	for _, root := range monoidRoots(pass) {
		sum := pass.Sums.Of(root)
		if sum == nil {
			continue
		}
		name := rootDisplayName(root)
		if sum.Facts&FactNondet != 0 {
			pass.Reportf(sum.NondetPos, "%s must be deterministic, but %s", name, sum.NondetWhy)
		}
		if sum.Facts&FactMutGlobal != 0 {
			pass.Reportf(sum.MutGlobalPos, "%s must not mutate package-level state, but %s", name, sum.MutGlobalWhy)
		}
		for i, mut := range sum.MutParams {
			if !mut {
				continue
			}
			pname := "parameter " + paramName(sum, i)
			pass.Reportf(sum.MutParamPos[i], "%s must not mutate its %s, but %s", name, pname, sum.MutParamWhy[i])
		}
	}
}

// monoidRoots collects the functions of this package whose purity the
// analyzer enforces, in deterministic order.
func monoidRoots(pass *Pass) []*types.Func {
	var roots []*types.Func
	seen := make(map[*types.Func]bool)
	add := func(fn *types.Func) {
		if fn != nil && !seen[fn] {
			seen[fn] = true
			roots = append(roots, fn)
		}
	}

	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(named))
		var ops []*types.Func
		shaped := true
		for _, mname := range [...]string{"Add", "Fold", "Merge"} {
			var fn *types.Func
			if sel := ms.Lookup(pass.Pkg, mname); sel != nil {
				fn, _ = sel.Obj().(*types.Func)
			}
			// Only methods declared in the package under analysis: a
			// promoted method from an embedded foreign type is that
			// package's to check.
			if fn == nil || fn.Pkg() != pass.Pkg {
				shaped = shaped && mname == "Add" // Add is optional
				continue
			}
			ops = append(ops, fn)
		}
		if shaped {
			for _, fn := range ops {
				add(fn)
			}
		}
	}

	if fragments, ok := nameRoots[pass.Pkg.Path()]; ok {
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				lower := strings.ToLower(fd.Name.Name)
				for _, frag := range fragments {
					if strings.Contains(lower, frag) {
						fn, _ := pass.ObjectOf(fd.Name).(*types.Func)
						add(fn)
						break
					}
				}
			}
		}
	}
	return roots
}

// rootDisplayName renders a root for diagnostics: Type.Method or
// Function.
func rootDisplayName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}

// paramName names the index-th declared parameter for diagnostics.
func paramName(sum *FuncSummary, i int) string {
	if obj := sum.node.paramObjs[i]; obj != nil && obj.Name() != "" {
		return obj.Name()
	}
	return "argument"
}
