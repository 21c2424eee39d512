package jsoninference

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/abstraction"
	"repro/internal/enrich"
	"repro/internal/jsontext"
	"repro/internal/pathquery"
	"repro/internal/value"
)

// This file exposes the extensions the paper's conclusion proposes
// (Section 7): statistics-enriched schemas, precision-preserving array
// inference, and the schema-driven path analysis / projection the
// introduction motivates.

// Profile is a statistics-enriched schema: the same structure as a
// Schema, annotated at every position with occurrence shares, field
// presence percentages, numeric ranges and means, string lengths and
// array lengths. It is a rendering of the enrichment lattice
// (docs/ENRICHMENT.md) that InferProfile computes alongside the schema,
// so profiles merge like schemas (commutatively, associatively) and
// support the same incremental maintenance.
type Profile struct {
	// s carries a lattice with the enrich.ProfileMonoids.
	s *Schema
}

// InferProfile runs statistics-enriched inference over a Source — the
// profile counterpart of Infer, and Infer itself with the
// enrich.ProfileMonoids (counts, ranges, lengths) added to
// Options.Enrich. Every Source kind, worker count, retry schedule and
// failure policy therefore works as it does for Infer, and renders the
// same profile; cancellation and deadlines take effect between chunks
// (or records, on the streaming path). The returned Stats are Infer's.
//
// Profiles merge commutatively and associatively (Profile.Merge), so
// partitioned datasets can be profiled partition by partition and
// merged, exactly like schemas.
func InferProfile(ctx context.Context, src Source, opts Options) (*Profile, Stats, error) {
	opts.Enrich = append(append([]string(nil), opts.Enrich...), enrich.ProfileMonoids)
	s, st, err := Infer(ctx, src, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	if s.enr == nil {
		// Nothing was fed, so the run built no lattice: start from the
		// empty one.
		set, err := enrich.ParseSet(opts.Enrich)
		if err != nil {
			return nil, Stats{}, err
		}
		s.enr = set.NewLattice()
	}
	return &Profile{s: s}, st, nil
}

// Records reports the number of values profiled.
func (p *Profile) Records() int64 { return p.s.enr.Values() }

// Merge folds another profile into this one; like Schema.Fuse, which
// it calls, the result describes the concatenated collections.
func (p *Profile) Merge(other *Profile) {
	if other != nil {
		p.s = p.s.Fuse(other.s)
	}
}

// Schema returns the plain schema the profile describes: the schema
// Infer returns for the same data and Options.
func (p *Profile) Schema() *Schema { return p.s.WithoutEnrichment() }

// String renders the annotated schema for human consumption.
func (p *Profile) String() string {
	out, err := p.s.enr.RenderProfile()
	if err != nil {
		// Unreachable: InferProfile and UnmarshalProfileJSON only build
		// profiles whose lattice carries the monoids it renders from.
		panic(err)
	}
	return out
}

// wireProfile is the profile codec: the schema codec plus the lattice.
type wireProfile struct {
	Schema  json.RawMessage `json:"schema"`
	Lattice json.RawMessage `json:"lattice"`
}

// MarshalJSON serializes the profile — its schema in the MarshalJSON
// codec and its lattice — so statistics can be stored next to schemas
// and merged across processes.
func (p *Profile) MarshalJSON() ([]byte, error) {
	schema, err := p.s.MarshalJSON()
	if err != nil {
		return nil, err
	}
	lat, err := p.s.enr.MarshalJSON()
	if err != nil {
		return nil, err
	}
	return json.Marshal(wireProfile{Schema: schema, Lattice: lat})
}

// UnmarshalProfileJSON decodes a profile encoded with MarshalJSON.
func UnmarshalProfileJSON(data []byte) (*Profile, error) {
	var w wireProfile
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("jsoninference: decoding profile: %w", err)
	}
	if len(w.Schema) == 0 || len(w.Lattice) == 0 {
		return nil, fmt.Errorf("jsoninference: decoding profile: want a schema and a lattice")
	}
	s, err := UnmarshalSchemaJSON(w.Schema)
	if err != nil {
		return nil, fmt.Errorf("jsoninference: decoding profile: %w", err)
	}
	lat, err := enrich.UnmarshalLattice(w.Lattice)
	if err == nil {
		err = lat.CheckProfile()
	}
	if err != nil {
		return nil, fmt.Errorf("jsoninference: decoding profile: %w", err)
	}
	return &Profile{s: s.withEnrichment(lat)}, nil
}

// AbstractKeys rewrites dictionary-like record types — many keys, similar
// value types, the Wikidata ids-as-keys pathology of the paper's
// Section 6.2 — into abstracted map types {*: T}. minKeys is the minimum
// field count to consider (0 = default 16). The result is a sound
// widening: every value of the original schema conforms to the
// abstracted one, and fusing further records into it refines the element
// type instead of re-growing the key explosion.
func (s *Schema) AbstractKeys(minKeys int) *Schema {
	return newSchema(abstraction.Abstract(s.t, abstraction.Options{MinKeys: minKeys}))
}

// PathMatch is one concrete, typed path through a schema, produced by
// Schema.ExpandPath.
type PathMatch struct {
	// Path is the concrete path with wildcards resolved, e.g.
	// "$.entities.hashtags[*].text".
	Path string
	// Type is the rendered type of the values the path selects.
	Type string
	// CanMiss reports whether a conforming value may lack the path
	// (optional field, union branch, or possibly-empty array on the
	// way).
	CanMiss bool
}

// ExpandPath resolves a JSONPath-like expression ($, .key, ["key"], .*,
// [*]) against the schema: wildcards expand to the concrete paths the
// data can contain, each with its static type. An empty result proves
// the path can never match — the compile-time error detection the
// paper's introduction motivates.
func (s *Schema) ExpandPath(path string) ([]PathMatch, error) {
	p, err := pathquery.Parse(path)
	if err != nil {
		return nil, err
	}
	ms := pathquery.Expand(s.t, p)
	out := make([]PathMatch, len(ms))
	for i, m := range ms {
		out[i] = PathMatch{Path: m.Path.String(), Type: m.Type.String(), CanMiss: m.CanMiss}
	}
	return out, nil
}

// Projection is a compiled set of paths used to load only the fragments
// of each record a query needs (the schema-based projection optimization
// of Section 1).
type Projection struct {
	mask *pathquery.Mask
}

// NewProjection compiles a projection from path expressions.
func NewProjection(paths ...string) (*Projection, error) {
	parsed := make([]pathquery.Path, len(paths))
	for i, src := range paths {
		p, err := pathquery.Parse(src)
		if err != nil {
			return nil, err
		}
		parsed[i] = p
	}
	return &Projection{mask: pathquery.NewMask(parsed...)}, nil
}

// ApplyJSON projects one JSON value: the result contains only the
// fragments the projection's paths can select, rendered as canonical
// JSON.
func (p *Projection) ApplyJSON(data []byte) ([]byte, error) {
	v, err := jsontext.ParseBytes(data)
	if err != nil {
		return nil, fmt.Errorf("jsoninference: %w", err)
	}
	return value.AppendJSON(nil, p.mask.Apply(v)), nil
}
