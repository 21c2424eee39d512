// Package schemarepo maintains inferred schemas incrementally, the
// capability Sections 1 and 7 of the paper derive from associativity:
//
//   - appending a record to the collection only requires fusing the
//     existing schema with the new record's type;
//   - when a partitioned dataset changes, only the dirty partitions are
//     re-inferred and the per-partition schemas are re-fused — never the
//     whole collection.
//
// The repository keeps one schema per named partition plus the fused
// global schema (computed lazily and cached). All schemas stored here are
// simplified (tuple-free), the invariant the fusion pipeline maintains,
// so fusing them is a pure fold of Fuse. Repositories serialize to JSON
// via the types codec for persistence.
package schemarepo

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/infer"
	"repro/internal/types"
	"repro/internal/value"
)

// Repo is a concurrency-safe incremental schema repository.
type Repo struct {
	mu         sync.Mutex
	partitions map[string]*partition
	cached     types.Type      // fused global schema; nil when stale
	cachedEnr  *enrich.Lattice // fused global enrichment; nil when stale or absent
	enrStale   bool
}

type partition struct {
	schema types.Type
	count  int64
	// enr is the partition's enrichment lattice (docs/ENRICHMENT.md);
	// nil when the partition was built without enrichment. Lattices
	// union under the same any-order guarantee as schemas.
	enr *enrich.Lattice
}

// New returns an empty repository.
func New() *Repo {
	return &Repo{partitions: make(map[string]*partition)}
}

// Append fuses one record into the named partition's schema, creating
// the partition on first use. This is the O(schema-size) insert path the
// paper describes for dynamic JSON sources.
func (r *Repo) Append(part string, v value.Value) {
	r.AppendType(part, fusion.Simplify(infer.Infer(v)))
}

// AppendType fuses an already-inferred type into the named partition.
// The type is simplified first so the repository invariant holds no
// matter where the type came from.
func (r *Repo) AppendType(part string, t types.Type) {
	t = fusion.Simplify(t)
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.partitions[part]
	if p == nil {
		p = &partition{schema: types.Empty}
		r.partitions[part] = p
	}
	p.schema = fusion.Fuse(p.schema, t)
	p.count++
	r.invalidateLocked()
}

// AppendEnriched fuses an already-fused schema describing count values
// into the named partition — the bulk insert path: a batch of records
// is inferred once (anywhere — another process, an HTTP client) and
// its schema lands here in one O(schema-size) fuse. By associativity
// this equals appending the batch record by record. lat is the batch's
// enrichment lattice (nil for none); it unions into the partition's
// lattice. Union is pure, so the caller's lattice is never mutated and
// may keep accumulating elsewhere.
func (r *Repo) AppendEnriched(part string, t types.Type, count int64, lat *enrich.Lattice) {
	t = fusion.Simplify(t)
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.partitions[part]
	if p == nil {
		p = &partition{schema: types.Empty}
		r.partitions[part] = p
	}
	p.schema = fusion.Fuse(p.schema, t)
	p.count += count
	if lat != nil {
		p.enr = enrich.Union(p.enr, lat)
	}
	r.invalidateLocked()
}

func (r *Repo) invalidateLocked() {
	r.cached = nil
	r.cachedEnr = nil
	r.enrStale = true
}

// SetPartition replaces a partition's schema wholesale, as after
// re-inferring an updated partition. count records how many values the
// schema describes.
func (r *Repo) SetPartition(part string, schema types.Type, count int64) {
	schema = fusion.Simplify(schema)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.partitions[part] = &partition{schema: schema, count: count}
	r.invalidateLocked()
}

// ReplacePartition re-infers a partition from its values, the "re-infer
// the schema for the updated parts" maintenance step of Section 1.
func (r *Repo) ReplacePartition(part string, vs []value.Value) {
	acc := types.Type(types.Empty)
	for _, v := range vs {
		acc = fusion.Fuse(acc, fusion.Simplify(infer.Infer(v)))
	}
	r.SetPartition(part, acc, int64(len(vs)))
}

// DropPartition removes a partition. Dropping an absent partition is a
// no-op.
func (r *Repo) DropPartition(part string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.partitions[part]; ok {
		delete(r.partitions, part)
		r.invalidateLocked()
		return true
	}
	return false
}

// Schema returns the fused schema of all partitions (ε when empty). The
// result is cached until the repository changes; recomputation folds one
// small schema per partition, which is cheap (the Table 8 observation).
func (r *Repo) Schema() types.Type {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cached == nil {
		acc := types.Type(types.Empty)
		for _, name := range r.partitionNamesLocked() {
			acc = fusion.Fuse(acc, r.partitions[name].schema)
		}
		r.cached = acc
	}
	return r.cached
}

// Enrichment returns the union of all partitions' enrichment lattices,
// nil when no partition carries one. Cached like Schema; Union is pure,
// so the cached lattice never aliases a partition's.
func (r *Repo) Enrichment() *enrich.Lattice {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.enrStale {
		var acc *enrich.Lattice
		for _, name := range r.partitionNamesLocked() {
			if p := r.partitions[name]; p.enr != nil {
				acc = enrich.Union(acc, p.enr)
			}
		}
		r.cachedEnr = acc
		r.enrStale = false
	}
	return r.cachedEnr
}

// PartitionSchema returns the named partition's schema and whether the
// partition exists.
func (r *Repo) PartitionSchema(part string) (types.Type, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.partitions[part]
	if !ok {
		return nil, false
	}
	return p.schema, true
}

// PartitionEnrichment returns a copy of the named partition's
// enrichment lattice; nil when the partition is absent or carries none.
// The copy lets the caller keep unioning without racing Append.
func (r *Repo) PartitionEnrichment(part string) *enrich.Lattice {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.partitions[part]
	if !ok || p.enr == nil {
		return nil
	}
	return p.enr.Clone()
}

// PartitionCount returns the number of values the named partition
// describes and whether the partition exists.
func (r *Repo) PartitionCount(part string) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.partitions[part]
	if !ok {
		return 0, false
	}
	return p.count, true
}

// Count returns the total number of values described across partitions.
func (r *Repo) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, p := range r.partitions {
		n += p.count
	}
	return n
}

// Partitions lists partition names in sorted order.
func (r *Repo) Partitions() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.partitionNamesLocked()
}

func (r *Repo) partitionNamesLocked() []string {
	names := make([]string, 0, len(r.partitions))
	for name := range r.partitions {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// wireRepo is the serialized form.
type wireRepo struct {
	Partitions []wirePartition `json:"partitions"`
}

type wirePartition struct {
	Name   string          `json:"name"`
	Count  int64           `json:"count"`
	Schema json.RawMessage `json:"schema"`
	// Enrichment is the partition's lattice in its self-describing wire
	// encoding; absent for plain partitions, so snapshots written by
	// older builds load unchanged.
	Enrichment json.RawMessage `json:"enrichment,omitempty"`
}

// Save writes the repository as a JSON document.
func (r *Repo) Save(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var doc wireRepo
	for _, name := range r.partitionNamesLocked() {
		p := r.partitions[name]
		raw, err := types.MarshalJSON(p.schema)
		if err != nil {
			return fmt.Errorf("schemarepo: partition %q: %w", name, err)
		}
		wp := wirePartition{Name: name, Count: p.count, Schema: raw}
		if p.enr != nil {
			enr, err := p.enr.MarshalJSON()
			if err != nil {
				return fmt.Errorf("schemarepo: partition %q enrichment: %w", name, err)
			}
			wp.Enrichment = enr
		}
		doc.Partitions = append(doc.Partitions, wp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("schemarepo: encoding repository: %w", err)
	}
	return nil
}

// Load reads a repository previously written with Save.
func Load(rd io.Reader) (*Repo, error) {
	var doc wireRepo
	if err := json.NewDecoder(rd).Decode(&doc); err != nil {
		return nil, fmt.Errorf("schemarepo: decoding repository: %w", err)
	}
	repo := New()
	for _, wp := range doc.Partitions {
		schema, err := types.UnmarshalJSON(wp.Schema)
		if err != nil {
			return nil, fmt.Errorf("schemarepo: partition %q: %w", wp.Name, err)
		}
		p := &partition{schema: schema, count: wp.Count}
		if len(wp.Enrichment) > 0 {
			lat, err := enrich.UnmarshalLattice(wp.Enrichment)
			if err != nil {
				return nil, fmt.Errorf("schemarepo: partition %q enrichment: %w", wp.Name, err)
			}
			p.enr = lat
		}
		repo.partitions[wp.Name] = p
	}
	repo.enrStale = true
	return repo, nil
}
