// Package enrich computes value-level enrichment statistics alongside
// structural inference, in the same single pass: numeric ranges,
// approximate distinct counts (HyperLogLog), Bloom-filter value
// sketches, string format detection, array-length and number-precision
// stats, and per-kind occurrence counts. A profile (profile.go) renders
// the lattice as an annotated schema, the statistics-enriched schemas
// of the paper's Section 7. The design follows JSONoid ("Monoid-based
// Enrichment for Configurable and Scalable Data-Driven Schema
// Discovery", PAPERS.md):
// every statistic is a commutative monoid — an empty identity plus an
// associative, commutative Merge — so enrichment distributes over any
// chunking, merge tree, worker count and retry schedule exactly like
// the fusion algebra it rides on (the paper's Theorems 5.4 and 5.5).
//
// The unit of state is the Lattice: a tree of nodes mirroring the
// paths of the observed values, each node carrying one state per
// enabled monoid. Lattices merge node-wise and state-wise, serialize
// deterministically, and surface as JSON Schema annotations
// (internal/jsonschema) and flat path reports.
//
// Every monoid must pass the conformance harness in
// internal/enrich/monoidtest — identity, commutativity, associativity
// and serialization round-trip over random merge trees — which is the
// same property suite the pipeline accumulators and obs snapshots run.
// docs/ENRICHMENT.md catalogues the monoids and the recipe for adding
// one.
package enrich

import (
	"fmt"
	"sort"
	"strings"
)

// A Monoid is one enrichment statistic at one path: observation hooks
// (called during decoding; each concrete monoid reacts to the kinds it
// cares about and ignores the rest), an associative + commutative
// Merge whose identity is the freshly constructed state, and a
// deterministic serialization. Merge must never mutate its argument —
// the monoidpure analyzer checks this interprocedurally for every
// Merge in this package, with zero suppressions.
type Monoid interface {
	// Observation hooks, one per scalar kind plus the object event
	// (fired once per object as it opens) and the array-length event
	// (fired once per array with its element count), both on the
	// composite's own node.
	Null()
	Bool(b bool)
	Num(f float64)
	Str(s string)
	Object()
	ArrayLen(n int)

	// Empty reports whether the state equals the identity. Empty
	// states are omitted from serialization and annotations.
	Empty() bool
	// Clone returns an independent deep copy.
	Clone() Monoid
	// Merge absorbs other (same concrete type) into the receiver.
	// Associative and commutative; must not mutate other.
	Merge(other Monoid)
	// Fold renders the final annotation key/value pairs (JSON Schema
	// keywords or x- extensions); nil when there is nothing to report.
	Fold() map[string]any
	// MarshalState serializes the state as JSON. The bytes are a pure
	// function of the abstract state (map keys sort, floats use the
	// shortest round-trip form), so byte-identity across merge trees
	// holds end to end.
	MarshalState() ([]byte, error)
}

// Kind says which schema nodes a monoid's annotations attach to, so
// the JSON Schema exporter can place e.g. minimum/maximum on number
// schemas and format on string schemas.
type Kind int

const (
	// KindValue annotations describe every value at the path (distinct
	// counts, Bloom membership) and attach to the path's schema node
	// itself — the union node when the path has mixed types.
	KindValue Kind = iota
	// KindNumber, KindString and KindArray annotations attach to the
	// number, string and array alternative of the path's schema.
	KindNumber
	KindString
	KindArray
)

// Def describes one monoid in the catalogue: its flag name, the node
// kind its annotations attach to, a constructor and a deserializer.
type Def struct {
	Name      string
	Kind      Kind
	New       func() Monoid
	Unmarshal func(data []byte) (Monoid, error)
}

// The sketch geometry, the same for every lattice: HLL keeps
// 2^hllPrecision one-byte registers (256 B, ~6.5% relative error) and
// the Bloom filter bloomBits bits probed bloomHashes times per value,
// so a node's sketches take 384 B. The wire format still spells the
// geometry out ("params", and each sketch's p, m and k);
// UnmarshalLattice rejects any other (docs/ENRICHMENT.md).
const (
	hllPrecision = 8
	bloomBits    = 1024
	bloomHashes  = 4
)

// catalogue lists every shipped monoid in canonical order. The order
// is the states-slice layout of every node, so it must be append-only
// within a run; across runs the serialized form is keyed by name.
func catalogue() []Def {
	return []Def{
		{Name: "ranges", Kind: KindNumber, New: newRanges, Unmarshal: unmarshalRanges},
		{Name: "hll", Kind: KindValue, New: newHLL, Unmarshal: unmarshalHLL},
		{Name: "bloom", Kind: KindValue, New: newBloom, Unmarshal: unmarshalBloom},
		{Name: "formats", Kind: KindString, New: newFormats, Unmarshal: unmarshalFormats},
		{Name: "lengths", Kind: KindArray, New: newLengths, Unmarshal: unmarshalLengths},
		{Name: "numprec", Kind: KindNumber, New: newNumPrec, Unmarshal: unmarshalNumPrec},
		{Name: "counts", Kind: KindValue, New: newCounts, Unmarshal: unmarshalCounts},
	}
}

// Names returns the catalogue's monoid names in canonical order.
func Names() []string {
	defs := catalogue()
	names := make([]string, len(defs))
	for i, d := range defs {
		names[i] = d.Name
	}
	return names
}

// A Set is a validated selection of monoids: the run-wide
// configuration every Lattice of one inference run shares.
type Set struct {
	defs []Def
}

// ParseSet validates a list of monoid names (each entry may itself be
// a comma-separated list, matching flag syntax) into a Set. "all"
// selects the whole catalogue. Duplicates collapse; unknown names
// error.
func ParseSet(names []string) (*Set, error) {
	want := make(map[string]bool)
	for _, entry := range names {
		for _, name := range strings.Split(entry, ",") {
			name = strings.TrimSpace(strings.ToLower(name))
			if name == "" {
				continue
			}
			if name == "all" {
				for _, n := range Names() {
					want[n] = true
				}
				continue
			}
			want[name] = true
		}
	}
	if len(want) == 0 {
		return nil, fmt.Errorf("enrich: empty monoid selection")
	}
	var defs []Def
	for _, d := range catalogue() {
		if want[d.Name] {
			defs = append(defs, d)
			delete(want, d.Name)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("enrich: unknown monoid(s) %s (known: %s, or all)",
			strings.Join(unknown, ", "), strings.Join(Names(), ", "))
	}
	return &Set{defs: defs}, nil
}

// Names returns the enabled monoid names in canonical order.
func (s *Set) Names() []string {
	names := make([]string, len(s.defs))
	for i, d := range s.defs {
		names[i] = d.Name
	}
	return names
}

// equalShape reports whether two sets enable the same monoids, so
// their lattices merge index-aligned.
func (s *Set) equalShape(o *Set) bool {
	if s == o {
		return true
	}
	if len(s.defs) != len(o.defs) {
		return false
	}
	for i := range s.defs {
		if s.defs[i].Name != o.defs[i].Name {
			return false
		}
	}
	return true
}

// unionSet merges two configurations: the union of the enabled
// monoids in canonical order.
func unionSet(a, b *Set) *Set {
	if a.equalShape(b) {
		return a
	}
	names := append(a.Names(), b.Names()...)
	merged, err := ParseSet(names)
	if err != nil {
		// Unreachable: both inputs hold catalogue names only.
		panic(err)
	}
	return merged
}

// index returns the position of a monoid name in the set, or -1.
func (s *Set) index(name string) int {
	for i, d := range s.defs {
		if d.Name == name {
			return i
		}
	}
	return -1
}
