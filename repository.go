package jsoninference

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/enrich"
	"repro/internal/fusion"
	"repro/internal/jsontext"
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

// Save writes the repository as a JSON document that LoadRepository
// reads back: each partition's stored schema in the types codec, with
// its count and enrichment. Safe to call concurrently with Append; the
// snapshot is a consistent point-in-time view. The document is version
// 1 of the snapshot format, written compact:
//
//	{"version":1,"shapes":[…],"partitions":[{"name","count","schema"[,"enrichment"]}…]}
//
// A composite shape that occurs two or more times across the
// partitions' schemas is written once in shapes, children first, and
// each use of it, a partition's schema included, is {"ref":i}
// (internal/types/snapshot.go). Save returns an error rather than
// write a snapshot LoadRepository would reject: one whose schemas
// expand to more than types.MaxSnapshotSize nodes together, or nest
// deeper than a document may.
func (r *Repository) Save(w io.Writer) error {
	buf, err := r.snapshot()
	if err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("jsoninference: writing repository: %w", err)
	}
	return nil
}

// snapshot renders the document Save writes.
func (r *Repository) snapshot() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := r.namesLocked()
	roots := make([]types.Type, len(names))
	for i, name := range names {
		roots[i] = r.partitions[name].schema
	}
	sw := types.NewSnapshotWriter(roots)
	buf := sw.AppendTable([]byte(`{"version":1,"shapes":`), 1)
	buf = append(buf, `,"partitions":[`...)
	for i, name := range names {
		p := r.partitions[name]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, `{"name":`...)
		buf = jsontext.AppendQuote(buf, name)
		buf = append(buf, `,"count":`...)
		buf = strconv.AppendInt(buf, p.count, 10)
		buf = append(buf, `,"schema":`...)
		var err error
		if buf, err = sw.AppendRoot(buf, i, 3); err != nil {
			return nil, fmt.Errorf("jsoninference: partition %q: %w", name, err)
		}
		if p.enr != nil {
			lat, err := p.enr.MarshalJSON()
			if err != nil {
				return nil, fmt.Errorf("jsoninference: partition %q enrichment: %w", name, err)
			}
			buf = append(append(buf, `,"enrichment":`...), lat...)
		}
		buf = append(buf, '}')
	}
	return append(buf, "]}\n"...), nil
}

// The member names of a snapshot and of each of its partitions.
var (
	repoMembers      = []string{"version", "shapes", "partitions"}
	partitionMembers = []string{"name", "count", "schema", "enrichment"}
)

// LoadRepository reads a repository previously written with Save. It
// reads version 1, Save's format, and version 0, the indented document
// without a version member, shapes or refs that Save wrote before; any
// other version is an error. It reads the document in one pass,
// decoding each shared shape once and each partition's schema in
// place: a shape used twice is one node, so the loaded schemas form a
// DAG. It is strict: it rejects unknown, repeated and case-folded
// member names, a version member that does not come first, a partition
// without a name, count or schema, a count that is not an integer
// literal, and anything after the document. It rejects a ref that does
// not name an earlier shape, and schemas that would expand to more
// than types.MaxSnapshotSize nodes together or nest deeper than a
// document may. It also rejects a document that would lose or invent
// records: a partition named twice, a negative count, or counts whose
// total overflows.
func LoadRepository(rd io.Reader) (*Repository, error) {
	data, err := readSized(rd)
	if err != nil {
		return nil, fmt.Errorf("jsoninference: reading repository: %w", err)
	}
	l := jsontext.AcquireLexerBytes(data)
	defer l.Release()
	l.RawStrings(true)
	r := NewRepository()
	if err := r.load(l, data); err != nil {
		return nil, err
	}
	return r, nil
}

// readSized reads rd to its end into a buffer sized up front from the
// length rd reports, if any: Len for an in-memory reader, Stat for a
// file. The size is only a hint, so a file that grew or shrank since
// Stat is still read whole; without one the buffer grows as it fills.
func readSized(rd io.Reader) ([]byte, error) {
	var size int64
	switch r := rd.(type) {
	case interface{ Len() int }:
		size = int64(r.Len())
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			size = fi.Size()
		}
	}
	var buf bytes.Buffer
	if size > 0 && size < math.MaxInt-bytes.MinRead {
		// One MinRead past the end lets the read that meets EOF fit.
		buf.Grow(int(size) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(rd)
	return buf.Bytes(), err
}

// load decodes the snapshot data into r, which is empty and not yet
// shared, off l, a lexer over data.
func (r *Repository) load(l *jsontext.Lexer, data []byte) error {
	wrap := func(err error) error { return fmt.Errorf("jsoninference: decoding repository: %w", err) }
	tok, err := l.Next()
	if err == nil && tok.Kind != jsontext.TokBeginObject {
		err = &jsontext.SyntaxError{Offset: tok.Offset, Msg: fmt.Sprintf("expected snapshot object, got %s", tok.Kind)}
	}
	if err != nil {
		return wrap(err)
	}
	// snap reads the schemas of a version 1 snapshot; nil for version 0.
	var snap *types.SnapshotReader
	var seen uint64
	for {
		m, err := l.NextMember(repoMembers, &seen)
		if err != nil {
			return wrap(err)
		}
		if m < 0 {
			break
		}
		switch repoMembers[m] {
		case "version":
			if seen != 1<<m {
				return wrap(fmt.Errorf("version is not the first member"))
			}
			snap, err = loadVersion(l)
		case "shapes":
			if snap == nil {
				return wrap(fmt.Errorf("shapes in a version 0 snapshot"))
			}
			err = loadShapes(l, snap)
		case "partitions":
			err = r.loadPartitions(l, data, snap)
		}
		if err != nil {
			return wrap(err)
		}
	}
	if seen&(1<<2) == 0 { // repoMembers[2]
		return wrap(fmt.Errorf("no partitions member"))
	}
	if tok, err := l.Next(); err != nil || tok.Kind != jsontext.TokEOF {
		if err == nil {
			err = &jsontext.SyntaxError{Offset: tok.Offset, Msg: "trailing data after snapshot"}
		}
		return wrap(err)
	}
	return nil
}

// loadVersion reads the version member's value and returns the reader
// of a version 1 snapshot's schemas, or nil for version 0.
func loadVersion(l *jsontext.Lexer) (*types.SnapshotReader, error) {
	tok, err := l.Next()
	if err != nil {
		return nil, err
	}
	if tok.Kind != jsontext.TokNum {
		return nil, &jsontext.SyntaxError{Offset: tok.Offset, Msg: fmt.Sprintf("expected version, got %s", tok.Kind)}
	}
	switch v := l.Literal(); string(v) {
	case "0":
		return nil, nil
	case "1":
		return new(types.SnapshotReader), nil
	default:
		return nil, fmt.Errorf("unsupported snapshot version %s", v)
	}
}

// loadShapes decodes a snapshot's table of shared shapes into snap.
func loadShapes(l *jsontext.Lexer, snap *types.SnapshotReader) error {
	tok, err := l.Next()
	if err != nil {
		return err
	}
	if tok.Kind != jsontext.TokBeginArray {
		return &jsontext.SyntaxError{Offset: tok.Offset, Msg: fmt.Sprintf("expected shapes array, got %s", tok.Kind)}
	}
	for i := 0; ; i++ {
		ok, err := l.NextElem(i)
		if err != nil || !ok {
			return err
		}
		if err := snap.ReadEntry(l, 2); err != nil {
			return err
		}
	}
}

// loadPartitions decodes the partitions member's value into r, reading
// the schemas with snap, or as version 0 when snap is nil.
func (r *Repository) loadPartitions(l *jsontext.Lexer, data []byte, snap *types.SnapshotReader) error {
	tok, err := l.Next()
	if err != nil || tok.Kind == jsontext.TokNull {
		return err
	}
	if tok.Kind != jsontext.TokBeginArray {
		return &jsontext.SyntaxError{Offset: tok.Offset, Msg: fmt.Sprintf("expected partitions array, got %s", tok.Kind)}
	}
	var total int64
	for i := 0; ; i++ {
		ok, err := l.NextElem(i)
		if err != nil || !ok {
			return err
		}
		tok, err := l.Next()
		if err != nil {
			return err
		}
		if tok.Kind != jsontext.TokBeginObject {
			return &jsontext.SyntaxError{Offset: tok.Offset, Msg: fmt.Sprintf("expected partition object, got %s", tok.Kind)}
		}
		name, p, err := loadPartition(l, data, snap)
		if err != nil {
			return err
		}
		if _, dup := r.partitions[name]; dup {
			return fmt.Errorf("partition %q appears twice", name)
		}
		if p.count < 0 {
			return fmt.Errorf("partition %q: negative count %d", name, p.count)
		}
		if total += p.count; total < 0 {
			return fmt.Errorf("partition %q: record total overflows", name)
		}
		r.partitions[name] = p
	}
}

// loadPartition decodes one partition object, whose '{' l has just
// read, at nesting depth 3 of the snapshot data, reading its schema
// with snap, or as version 0 when snap is nil.
func loadPartition(l *jsontext.Lexer, data []byte, snap *types.SnapshotReader) (string, *partition, error) {
	const depth = 3
	var (
		name string
		p    = new(partition)
		seen uint64
	)
	for {
		m, err := l.NextMember(partitionMembers, &seen)
		if err != nil {
			return "", nil, err
		}
		if m < 0 {
			break
		}
		switch partitionMembers[m] {
		case "name":
			var tok jsontext.Token
			if tok, err = l.Next(); err == nil && tok.Kind != jsontext.TokStr {
				err = &jsontext.SyntaxError{Offset: tok.Offset, Msg: fmt.Sprintf("expected partition name string, got %s", tok.Kind)}
			}
			name = l.Text(tok)
		case "count":
			// Parsed from the literal, not the lexer's float64, so every
			// int64 count is exact and a fraction or exponent is an error.
			var tok jsontext.Token
			if tok, err = l.Next(); err == nil {
				if tok.Kind != jsontext.TokNum {
					err = &jsontext.SyntaxError{Offset: tok.Offset, Msg: fmt.Sprintf("expected count, got %s", tok.Kind)}
				} else if p.count, err = strconv.ParseInt(string(l.Literal()), 10, 64); err != nil {
					err = fmt.Errorf("count at offset %d: %w", tok.Offset, err)
				}
			}
		case "schema":
			if snap != nil {
				p.schema, err = snap.ReadJSON(l, depth)
			} else {
				p.schema, err = types.ReadJSON(l, depth)
			}
			if err != nil {
				return "", nil, fmt.Errorf("partition %q: %w", name, err)
			}
		case "enrichment":
			var start int64
			if start, err = l.SkipValue(depth); err == nil {
				if p.enr, err = enrich.UnmarshalLattice(data[start:l.Offset()]); err != nil {
					return "", nil, fmt.Errorf("partition %q enrichment: %w", name, err)
				}
			}
		}
		if err != nil {
			return "", nil, err
		}
	}
	if seen&0b111 != 0b111 {
		return "", nil, fmt.Errorf("partition %q without a name, count or schema", name)
	}
	return name, p, nil
}
