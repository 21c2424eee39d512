package jsoninference

import (
	"fmt"
	"math/rand"

	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/jsonschema"
	"repro/internal/jsontext"
	"repro/internal/types"
	"repro/internal/value"
)

// Schema is an inferred JSON schema: a type of the paper's language
// wrapped behind a stable API. Schemas are immutable; Fuse returns a new
// one. The zero value is not useful — obtain schemas from the Infer
// functions, ParseSchema, or UnmarshalSchemaJSON.
//
// A schema inferred with Options.Enrich additionally carries the run's
// enrichment lattice (per-path value statistics, docs/ENRICHMENT.md):
// JSONSchema output gains annotations, EnrichmentJSON reports them per
// path, and Fuse combines the lattices alongside the types. The
// structural methods — String, Equal, MarshalJSON, Size — never see
// it.
type Schema struct {
	t types.Type
	// enr is the enrichment lattice; nil on plain schemas.
	enr *enrich.Lattice
}

// newSchema wraps a type; nil types are rejected at the call sites.
func newSchema(t types.Type) *Schema { return &Schema{t: t} }

// withEnrichment attaches an enrichment lattice (nil is fine).
func (s *Schema) withEnrichment(l *enrich.Lattice) *Schema {
	s.enr = l
	return s
}

// EmptySchema returns the schema of the empty collection: the empty type
// ε, the identity of Fuse.
func EmptySchema() *Schema { return newSchema(types.Empty) }

// ParseSchema parses the paper's type syntax, e.g.
// "{id: Num, name: Str?, tags: [(Num + Str)*]}".
func ParseSchema(src string) (*Schema, error) {
	t, err := types.Parse(src)
	if err != nil {
		return nil, err
	}
	return newSchema(t), nil
}

// String renders the schema in the paper's compact type syntax. The
// output round-trips through ParseSchema.
func (s *Schema) String() string { return s.t.String() }

// Indent renders the schema in an indented multi-line form for reading.
func (s *Schema) Indent() string { return types.Indent(s.t) }

// Size returns the number of nodes of the schema's abstract syntax tree,
// the succinctness measure used throughout the paper's evaluation.
func (s *Schema) Size() int { return s.t.Size() }

// IsEmpty reports whether the schema is ε (no values described).
func (s *Schema) IsEmpty() bool { return types.Equal(s.t, types.Empty) }

// Equal reports whether two schemas are structurally identical.
func (s *Schema) Equal(other *Schema) bool {
	return other != nil && types.Equal(s.t, other.t)
}

// Fuse merges this schema with another, returning the schema of the
// union of the two collections. Fuse is commutative and associative
// (Theorems 5.4 and 5.5 of the paper), so schemas inferred from
// partitions of a dataset can be fused in any order. Tagged unions
// that collapse in the merge are lowered to plain records, as Infer
// lowers them.
func (s *Schema) Fuse(other *Schema) *Schema {
	if other == nil {
		return s
	}
	return newSchema(lower(fusion.Fuse(s.t, other.t))).withEnrichment(enrich.Union(s.enr, other.enr))
}

// lower applies the final lowering of tagged-union merge states to a
// fusion of finalized schemas: collapsed unions become plain records
// and single-tag wrapper unions fold back. Types without unions are
// returned as they are.
func lower(t types.Type) types.Type { return fusion.Options{}.Finalize(t) }

// Contains reports whether the JSON value in data conforms to the
// schema (the semantic membership V ∈ ⟦T⟧ of Section 4 of the paper).
func (s *Schema) Contains(data []byte) (bool, error) {
	v, err := jsontext.ParseBytes(data)
	if err != nil {
		return false, fmt.Errorf("jsoninference: parsing value: %w", err)
	}
	return types.Member(v, s.t), nil
}

// SubschemaOf reports whether every value described by s is also
// described by other (a sound syntactic check of the sub-typing relation
// of Definition 4.1).
func (s *Schema) SubschemaOf(other *Schema) bool {
	return other != nil && types.Subtype(s.t, other.t)
}

// EquivalentTo reports whether the two schemas describe the same values
// (mutual sub-schema). Coarser than Equal: structurally different
// renderings of the same value set — such as "[]" and "[ε*]" — are
// equivalent but not equal.
func (s *Schema) EquivalentTo(other *Schema) bool {
	return other != nil && types.Equivalent(s.t, other.t)
}

// Sample generates an example JSON value conforming to the schema,
// deterministic for a given seed. It reports false when the schema
// admits no values (the empty schema ε). Samples make an inferred
// schema concrete: "what does a record of this collection look like?"
func (s *Schema) Sample(seed int64) ([]byte, bool) {
	v, ok := types.Witness(s.t, rand.New(rand.NewSource(seed)))
	if !ok {
		return nil, false
	}
	return value.AppendJSON(nil, v), true
}

// JSONSchema exports the schema as a JSON Schema (draft-04) document.
// A schema inferred with Options.Enrich carries its enrichment as
// annotations: observed minimum/maximum on number schemas, format on
// unanimously formatted string schemas, and x- extension keywords
// (x-distinctValues, x-bloomFilter, x-observedMinItems, ...) that
// never tighten validation. Use WithoutEnrichment for the plain
// document.
func (s *Schema) JSONSchema() ([]byte, error) {
	if s.enr != nil {
		return jsonschema.MarshalAnnotated(s.t, s.enr)
	}
	return jsonschema.Marshal(s.t)
}

// Enriched reports whether the schema carries enrichment statistics
// (inferred with Options.Enrich, and at least one value observed).
func (s *Schema) Enriched() bool { return !s.enr.Empty() }

// EnrichmentJSON reports the enrichment statistics as a flat JSON
// object mapping paths (in the $.field[] spelling of ExpandPath) to
// their annotations; "{}" on a plain schema.
func (s *Schema) EnrichmentJSON() ([]byte, error) { return s.enr.MarshalReport() }

// WithoutEnrichment returns the schema with its enrichment statistics
// stripped: same structure, plain JSONSchema output.
func (s *Schema) WithoutEnrichment() *Schema { return newSchema(s.t) }

// MarshalJSON encodes the schema in the library's loss-free JSON codec
// (distinct from JSONSchema, which targets the JSON Schema standard).
func (s *Schema) MarshalJSON() ([]byte, error) { return types.MarshalJSON(s.t) }

// UnmarshalSchemaJSON decodes a schema encoded with MarshalJSON.
func UnmarshalSchemaJSON(data []byte) (*Schema, error) {
	t, err := types.UnmarshalJSON(data)
	if err != nil {
		return nil, err
	}
	return newSchema(t), nil
}
