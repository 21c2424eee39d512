package jsoninference

import (
	"encoding/json"
	"io"

	"repro/internal/types"
)

// SaveVersion0 writes r as version 0 of the snapshot format, the
// indented document without shapes or refs that Save wrote before
// snapshots had a version: {"partitions": [{"name", "count", "schema"[,
// "enrichment"]}, ...]} (null for an empty repository), each schema in
// the types codec, laid out by json.Encoder with SetIndent("", "  ").
// It is the oracle that pins version 0's bytes and feeds the loader
// version 0 documents.
func SaveVersion0(r *Repository, w io.Writer) error {
	type wirePartition struct {
		Name       string          `json:"name"`
		Count      int64           `json:"count"`
		Schema     json.RawMessage `json:"schema"`
		Enrichment json.RawMessage `json:"enrichment,omitempty"`
	}
	var doc struct {
		Partitions []wirePartition `json:"partitions"`
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.namesLocked() {
		p := r.partitions[name]
		wp := wirePartition{Name: name, Count: p.count}
		var err error
		if wp.Schema, err = types.MarshalJSON(p.schema); err != nil {
			return err
		}
		if p.enr != nil {
			if wp.Enrichment, err = p.enr.MarshalJSON(); err != nil {
				return err
			}
		}
		doc.Partitions = append(doc.Partitions, wp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// StoredPartition returns the named partition's schema as the
// repository stores it, before Schema and PartitionSchema lower it, and
// its lattice's encoding, nil without one.
func StoredPartition(r *Repository, name string) (types.Type, []byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.partitions[name]
	if p.enr == nil {
		return p.schema, nil, nil
	}
	lat, err := p.enr.MarshalJSON()
	return p.schema, lat, err
}
