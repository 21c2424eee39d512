package fusion

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/intern"
	"repro/internal/jsontext"
	"repro/internal/types"
)

// kernelPolicies are the policies the copy-on-write kernel is checked
// under against the rebuild-everything oracle.
var kernelPolicies = []struct {
	name string
	o    Options
}{
	{"paper", Options{}},
	{"tuples", Options{Tuples: true}},
	{"tagged", tagged},
}

// requireSameBytes fails unless got and want encode to the same codec
// bytes.
func requireSameBytes(t *testing.T, what string, got, want types.Type) {
	t.Helper()
	if g, w := codecBytes(t, got), codecBytes(t, want); !bytes.Equal(g, w) {
		t.Fatalf("%s:\n got %s\nwant %s", what, g, w)
	}
}

// TestKernelMatchesOracle: on every dataset generator, under the paper,
// positional and tagged policies, Simplify of each phase-one type,
// Fuse of consecutive raw phase-one types, every step of the left fold
// (direct and memoized) and Finalize of the fold all equal the oracle
// kernel in codec bytes.
func TestKernelMatchesOracle(t *testing.T) {
	for _, p := range kernelPolicies {
		orc := oracle{o: p.o}
		for _, name := range dataset.Names() {
			t.Run(p.name+"/"+name, func(t *testing.T) {
				g, err := dataset.New(name)
				if err != nil {
					t.Fatal(err)
				}
				raw := decodeTypes(t, dataset.NDJSON(g, 80, 5), p.o)
				memo := NewMemo(p.o, intern.NewTable())
				acc, oacc, macc := types.Type(types.Empty), types.Type(types.Empty), types.Type(types.Empty)
				for i, r := range raw {
					s := p.o.Simplify(r)
					os := orc.simplify(r)
					requireSameBytes(t, "Simplify", s, os)
					if i > 0 {
						requireSameBytes(t, "Fuse of raw types", p.o.Fuse(raw[i-1], r), orc.fuse(raw[i-1], r))
					}
					acc, oacc = p.o.Fuse(acc, s), orc.fuse(oacc, os)
					requireSameBytes(t, "left fold step", acc, oacc)
					macc = memo.Fuse(macc, memo.Simplify(r))
				}
				requireSameBytes(t, "memoized left fold", macc, oacc)
				requireSameBytes(t, "Finalize", p.o.Finalize(acc), orc.finalize(oacc))
			})
		}
	}
}

// nonNormalUnions are hand-built unions with two alternatives of one
// kind, somewhere inside. Fusion never builds them, but the parser
// and the codec accept them, and the kernel must still re-fuse them
// exactly as the oracle does rather than share them.
var nonNormalUnions = []string{
	"{a: Num} + {b: Str}",
	"{a: Num?} + {}",
	"Num + {a: Num?} + {}",
	"[Num] + [Str*]",
	"[Num, Str] + [Bool, Null]",
	"[Num*] + [Num, Str] + Null",
	"{x: {a: Num} + {a: Str, b: Null}, y: Bool}",
	"[({a: Num} + {b: Num})*]",
	"{*: Num} + {a: Str}",
	"{*: Num} + {*: Str} + Bool",
	"variants(type){push: {type: Str, a: Num}} + {b: Num}",
	"wrapper{delete: {delete: {id: Num}}} + wrapper{scrub: {scrub: {id: Str}}}",
	"collapsed{*: {a: Num}} + {a: Str}",
}

// TestKernelMatchesOracleOnNonNormalUnions: Simplify, Finalize and
// Fuse (with ε, with itself, with each other and with normal types) of
// hand-built non-normal unions equal the oracle in codec bytes.
func TestKernelMatchesOracleOnNonNormalUnions(t *testing.T) {
	others := []string{"ε", "Num", "{a: Num}", "{a: Num?, b: Str?}", "[Num*]", "Null + {}"}
	for _, p := range kernelPolicies {
		orc := oracle{o: p.o}
		for _, src := range nonNormalUnions {
			u := tp(t, src)
			if types.IsNormal(u) {
				t.Fatalf("%s is normal", src)
			}
			requireSameBytes(t, p.name+" Simplify "+src, p.o.Simplify(u), orc.simplify(u))
			requireSameBytes(t, p.name+" Finalize "+src, p.o.Finalize(u), orc.finalize(u))
			requireSameBytes(t, p.name+" Fuse(u, u) "+src, p.o.Fuse(u, u), orc.fuse(u, u))
			for _, o := range append(others, nonNormalUnions...) {
				v := tp(t, o)
				requireSameBytes(t, p.name+" Fuse "+src+" with "+o, p.o.Fuse(u, v), orc.fuse(u, v))
				requireSameBytes(t, p.name+" Fuse "+o+" with "+src, p.o.Fuse(v, u), orc.fuse(v, u))
			}
		}
	}
}

// TestAbsorbedFuseStepSharesAndAllocatesNothing: once F is the fusion
// of simplified dataset types, folding any of them in again returns F
// itself and allocates nothing — the step Fuse(F, t) = F that dominates
// the left fold on repetitive data. F comes first, as the accumulator
// does in every fold: where both operands equal the result, the first
// one is shared. Under Tuples the step still shares F but may allocate:
// a kept tuple of t meeting a [T*] of F is collapsed first, and the
// collapse is built. And under the paper's policy, a later record
// walked against F (infer.Decoder.Walk) gives a type T′ each of whose
// nodes taken from F is a node of Fuse(F, T′) too, pointer for
// pointer: the settled fast path fuses a reused node with itself for
// free. (Under Tuples a kept tuple of reused elements meets F's [T*]
// and is collapsed, so the reused element is fused with other types.)
func TestAbsorbedFuseStepSharesAndAllocatesNothing(t *testing.T) {
	reused := 0
	for _, p := range kernelPolicies[:2] { // tagged variants are rebuilt
		for _, name := range dataset.Names() {
			g, err := dataset.New(name)
			if err != nil {
				t.Fatal(err)
			}
			ts := phaseOneTypes(t, dataset.NDJSON(g, 40, 9), p.o)
			f := fuseAll(p.o, ts)
			for i, ti := range ts {
				if got := p.o.Fuse(f, ti); got != f {
					t.Fatalf("%s/%s: Fuse(F, t%d) rebuilt F", p.name, name, i)
				}
			}
			if p.name != "paper" {
				continue
			}
			reused += requireReusedNodesShared(t, name, p.o, dataset.NDJSON(g, 80, 9), f)
			allocs := testing.AllocsPerRun(5, func() {
				for _, ti := range ts {
					p.o.Fuse(f, ti)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%s: %d absorbed Fuse steps allocate %.0f times, want 0", p.name, name, len(ts), allocs)
			}
		}
	}
	if reused < 100 {
		t.Errorf("walked records reused %d nodes of F, want more", reused)
	}
}

// requireReusedNodesShared walks the records of data against F under
// o and fails unless every node a walked type T′ takes from F is a
// node of Fuse(F, T′). It returns the number of such nodes.
func requireReusedNodesShared(t *testing.T, name string, o Options, data []byte, f types.Type) int {
	t.Helper()
	fNodes := nodes(f)
	dec := infer.NewBytesDecoder(data, jsontext.Options{})
	defer dec.Release()
	dec.SetSimplifier(o)
	var reused int
	for i := 0; ; i++ {
		walked, _, _, err := dec.Walk(f, false)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if walked == nil {
			continue
		}
		fused := nodes(o.Fuse(f, walked))
		types.Walk(walked, func(n types.Type) bool {
			if !fNodes[n] {
				return true
			}
			reused++
			if !fused[n] {
				t.Fatalf("%s record %d: Fuse(F, T′) rebuilt the node %s that T′ takes from F", name, i, n)
			}
			return false
		})
	}
	return reused
}

// nodes returns the set of t's nodes that are pointers.
func nodes(t types.Type) map[types.Type]bool {
	set := map[types.Type]bool{}
	types.Walk(t, func(n types.Type) bool {
		switch n.(type) {
		case types.Basic, types.EmptyType:
		default:
			set[n] = true
		}
		return true
	})
	return set
}

// TestSimplifyTupleFreeSharesAndAllocatesNothing: a type Simplify would
// not change — tuple-free, or already simplified under the policy — is
// returned as is, without allocating.
func TestSimplifyTupleFreeSharesAndAllocatesNothing(t *testing.T) {
	for _, p := range kernelPolicies {
		for _, name := range dataset.Names() {
			g, err := dataset.New(name)
			if err != nil {
				t.Fatal(err)
			}
			f := fuseAll(p.o, phaseOneTypes(t, dataset.NDJSON(g, 40, 9), p.o))
			if got := p.o.Simplify(f); got != f {
				t.Fatalf("%s/%s: Simplify rebuilt a simplified type", p.name, name)
			}
			if n := testing.AllocsPerRun(20, func() { p.o.Simplify(f) }); n != 0 {
				t.Errorf("%s/%s: Simplify of a simplified type allocates %.0f times, want 0", p.name, name, n)
			}
		}
	}
}
