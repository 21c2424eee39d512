package jsoninference

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/types"
)

// A Repository maintains inferred schemas incrementally, one per named
// partition plus the fused global schema — the capability Sections 1
// and 7 of the paper derive from associativity: appending a batch only
// fuses its schema into one partition, and the global schema is a fold
// of the small per-partition schemas, never a re-inference of the data.
//
// Repositories are safe for concurrent use: Append, Schema, Save and
// the rest may race freely (cmd/schemad serves one Repository per
// tenant to hundreds of concurrent ingest streams). All schemas stored
// in a Repository are simplified on the way in and fused under the
// paper's rules. For schemas inferred with the default Options the
// results are byte-identical to a single offline Infer over the
// concatenated records, whatever the arrival order of same-partition
// batches and whatever the interleaving across partitions — the
// guarantee cmd/schemadload verifies end to end over HTTP. Other
// policies can differ from offline inference: PreserveTupleArrays
// tuples are simplified to repeated types ({p: [Num, Str]} is stored as
// {p: [(Num + Str)*]}), and a TaggedUnions partition whose union has
// already collapsed can absorb later unions differently. Schema and
// PartitionSchema lower collapsed tagged unions to plain records, as
// Infer does.
//
// The zero value is not ready; use NewRepository or LoadRepository.
type Repository struct {
	mu         sync.Mutex
	partitions map[string]*partition
	// fused is the cached global schema, nil when stale; fusedEnr is the
	// union of the partitions' lattices, cached alongside it.
	fused    types.Type
	fusedEnr *enrich.Lattice
}

type partition struct {
	schema types.Type
	count  int64
	// enr is the partition's enrichment lattice (docs/ENRICHMENT.md);
	// nil when the partition was built without enrichment. Lattices
	// union under the same any-order guarantee as schemas.
	enr *enrich.Lattice
}

// NewRepository returns an empty repository.
func NewRepository() *Repository {
	return &Repository{partitions: make(map[string]*partition)}
}

// Append fuses a schema describing count records into the named
// partition, creating the partition on first use. The typical flow
// infers a batch with Infer (or receives a schema from elsewhere) and
// appends it here in one O(schema-size) operation; by associativity
// this equals appending the batch record by record. A nil or empty
// schema adds only to the partition's record count. A schema inferred
// with Options.Enrich carries its enrichment lattice along: the
// partition accumulates it, and Schema and PartitionSchema return
// schemas enriched with the union.
//
// Append panics if count is negative or would overflow the int64
// record total, the counts LoadRepository rejects, so anything Save
// writes loads back.
func (r *Repository) Append(part string, s *Schema, count int64) {
	if count < 0 {
		panic(fmt.Sprintf("jsoninference: Append(%q): negative count %d", part, count))
	}
	t := types.Type(types.Empty)
	var lat *enrich.Lattice
	if s != nil {
		t, lat = fusion.Simplify(s.t), s.enr
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.countLocked()+count < 0 {
		panic(fmt.Sprintf("jsoninference: Append(%q): record total overflows", part))
	}
	p := r.partitions[part]
	if p == nil {
		p = &partition{schema: types.Empty}
		r.partitions[part] = p
	}
	p.schema = fusion.Fuse(p.schema, t)
	p.count += count
	if lat != nil {
		// Union is pure, so the caller's lattice is never mutated.
		p.enr = enrich.Union(p.enr, lat)
	}
	r.fused, r.fusedEnr = nil, nil
}

// Schema returns the fused schema of all partitions (the empty schema
// when the repository is empty), carrying the union of any enrichment
// appended. The result is cached until the repository changes;
// recomputation folds one small schema per partition (the Table 8
// observation).
func (r *Repository) Schema() *Schema {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fused == nil {
		acc := types.Type(types.Empty)
		var lat *enrich.Lattice
		for _, name := range r.namesLocked() {
			p := r.partitions[name]
			acc = fusion.Fuse(acc, p.schema)
			if p.enr != nil {
				lat = enrich.Union(lat, p.enr)
			}
		}
		r.fused, r.fusedEnr = lower(acc), lat
	}
	return newSchema(r.fused).withEnrichment(r.fusedEnr)
}

// PartitionSchema returns the named partition's schema (with a copy of
// its enrichment, if any was appended) and whether the partition
// exists.
func (r *Repository) PartitionSchema(part string) (*Schema, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.partitions[part]
	if !ok {
		return nil, false
	}
	return newSchema(lower(p.schema)).withEnrichment(p.enr.Clone()), true
}

// PartitionCount returns the number of records the named partition
// describes and whether the partition exists.
func (r *Repository) PartitionCount(part string) (int64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.partitions[part]
	if !ok {
		return 0, false
	}
	return p.count, true
}

// DropPartition removes a partition, as when a shard of the dataset is
// deleted; the global schema shrinks accordingly on the next Schema
// call. It reports whether the partition existed; dropping an absent
// partition is a no-op.
func (r *Repository) DropPartition(part string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.partitions[part]; !ok {
		return false
	}
	delete(r.partitions, part)
	r.fused, r.fusedEnr = nil, nil
	return true
}

// Partitions lists partition names in sorted order.
func (r *Repository) Partitions() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.namesLocked()
}

func (r *Repository) namesLocked() []string {
	names := make([]string, 0, len(r.partitions))
	for name := range r.partitions {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Count returns the total number of records described across
// partitions.
func (r *Repository) Count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.countLocked()
}

func (r *Repository) countLocked() int64 {
	var n int64
	for _, p := range r.partitions {
		n += p.count
	}
	return n
}

// wireRepo is the snapshot form Save writes.
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

// Save writes the repository as a JSON document that LoadRepository
// reads back: each partition's stored schema in the types codec, with
// its count and enrichment. Safe to call concurrently with Append; the
// snapshot is a consistent point-in-time view.
func (r *Repository) Save(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var doc wireRepo
	for _, name := range r.namesLocked() {
		p := r.partitions[name]
		raw, err := types.MarshalJSON(p.schema)
		if err != nil {
			return fmt.Errorf("jsoninference: partition %q: %w", name, err)
		}
		wp := wirePartition{Name: name, Count: p.count, Schema: raw}
		if p.enr != nil {
			if wp.Enrichment, err = p.enr.MarshalJSON(); err != nil {
				return fmt.Errorf("jsoninference: partition %q enrichment: %w", name, err)
			}
		}
		doc.Partitions = append(doc.Partitions, wp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("jsoninference: encoding repository: %w", err)
	}
	return nil
}

// LoadRepository reads a repository previously written with Save. It
// rejects a document that would lose or invent records: a partition
// named twice, a negative count, or counts whose total overflows.
func LoadRepository(rd io.Reader) (*Repository, error) {
	var doc wireRepo
	if err := json.NewDecoder(rd).Decode(&doc); err != nil {
		return nil, fmt.Errorf("jsoninference: decoding repository: %w", err)
	}
	r := NewRepository()
	var total int64
	for _, wp := range doc.Partitions {
		if _, dup := r.partitions[wp.Name]; dup {
			return nil, fmt.Errorf("jsoninference: partition %q appears twice", wp.Name)
		}
		if wp.Count < 0 {
			return nil, fmt.Errorf("jsoninference: partition %q: negative count %d", wp.Name, wp.Count)
		}
		if total += wp.Count; total < 0 {
			return nil, fmt.Errorf("jsoninference: partition %q: record total overflows", wp.Name)
		}
		schema, err := types.UnmarshalJSON(wp.Schema)
		if err != nil {
			return nil, fmt.Errorf("jsoninference: partition %q: %w", wp.Name, err)
		}
		p := &partition{schema: schema, count: wp.Count}
		if len(wp.Enrichment) > 0 {
			if p.enr, err = enrich.UnmarshalLattice(wp.Enrichment); err != nil {
				return nil, fmt.Errorf("jsoninference: partition %q enrichment: %w", wp.Name, err)
			}
		}
		r.partitions[wp.Name] = p
	}
	return r, nil
}
