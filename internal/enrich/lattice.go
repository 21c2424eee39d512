package enrich

import (
	"encoding/json"
	"fmt"
	"sort"
)

// A Lattice is the enrichment state of one (partial) dataset: a tree
// of nodes mirroring the value paths seen so far, each node carrying
// one state per enabled monoid. A fresh lattice is the identity;
// Merge combines two lattices node-wise and state-wise, so lattices
// form a commutative monoid themselves (property-tested through the
// same conformance harness as the individual monoids).
//
// During decoding a Lattice doubles as the stream observer (it
// implements internal/infer.Observer structurally): scalar events land
// on the node of the current path, array elements collapse onto one
// "[]" child — the same collapse fusion applies to array types — and
// tuple positions therefore share a node.
type Lattice struct {
	set  *Set
	root *node

	// stack is the observer's walk state: one frame per open composite
	// value. Transient — ignored by Merge, Clone and serialization.
	stack []frame
}

type frame struct {
	n       *node
	key     string
	inArray bool
}

// node carries the per-monoid states of one path plus its children.
type node struct {
	states []Monoid
	fields map[string]*node
	elem   *node
}

// NewLattice returns the empty lattice of the set's configuration.
func (s *Set) NewLattice() *Lattice {
	return &Lattice{set: s, root: s.newNode()}
}

func (s *Set) newNode() *node {
	n := &node{states: make([]Monoid, len(s.defs))}
	for i, d := range s.defs {
		n.states[i] = d.New()
	}
	return n
}

// Set returns the lattice's configuration.
func (l *Lattice) Set() *Set { return l.set }

// cur resolves the node of the value about to be observed: the root at
// the top level, the keyed child inside an object, the shared element
// child inside an array. Missing nodes are created on first visit.
func (l *Lattice) cur() *node {
	if len(l.stack) == 0 {
		return l.root
	}
	f := &l.stack[len(l.stack)-1]
	if f.inArray {
		if f.n.elem == nil {
			f.n.elem = l.set.newNode()
		}
		return f.n.elem
	}
	child := f.n.fields[f.key]
	if child == nil {
		child = l.set.newNode()
		if f.n.fields == nil {
			f.n.fields = make(map[string]*node)
		}
		f.n.fields[f.key] = child
	}
	return child
}

// The observer hooks (see internal/infer.Observer). Scalars dispatch
// to every state of the current node; composites push/pop walk frames,
// opening an object fires the object event and closing an array fires
// the length event, both on the composite's own node.

func (l *Lattice) Null() {
	for _, s := range l.cur().states {
		s.Null()
	}
}

func (l *Lattice) Bool(b bool) {
	for _, s := range l.cur().states {
		s.Bool(b)
	}
}

func (l *Lattice) Num(f float64) {
	for _, s := range l.cur().states {
		s.Num(f)
	}
}

func (l *Lattice) Str(s string) {
	for _, st := range l.cur().states {
		st.Str(s)
	}
}

func (l *Lattice) BeginObject() {
	n := l.cur()
	for _, s := range n.states {
		s.Object()
	}
	l.stack = append(l.stack, frame{n: n})
}

func (l *Lattice) Key(k string) {
	l.stack[len(l.stack)-1].key = k
}

func (l *Lattice) EndObject() {
	l.stack = l.stack[:len(l.stack)-1]
}

func (l *Lattice) BeginArray() {
	l.stack = append(l.stack, frame{n: l.cur(), inArray: true})
}

func (l *Lattice) EndArray(count int) {
	f := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	for _, s := range f.n.states {
		s.ArrayLen(count)
	}
}

// Reset discards a partially observed value's walk state (after a
// decode error the observer may hold open frames).
func (l *Lattice) Reset() { l.stack = l.stack[:0] }

// Merge absorbs other into the receiver without mutating other. Both
// lattices must come from the same Set — the shape every accumulator
// of one run shares; use Union to combine lattices across runs.
func (l *Lattice) Merge(other *Lattice) {
	if other == nil {
		return
	}
	l.root.merge(other.root)
}

func (n *node) merge(o *node) {
	for i := range n.states {
		n.states[i].Merge(o.states[i])
	}
	for k, oc := range o.fields {
		if mc, ok := n.fields[k]; ok {
			mc.merge(oc)
		} else {
			if n.fields == nil {
				n.fields = make(map[string]*node)
			}
			n.fields[k] = oc.clone()
		}
	}
	if o.elem != nil {
		if n.elem == nil {
			n.elem = o.elem.clone()
		} else {
			n.elem.merge(o.elem)
		}
	}
}

// Clone returns an independent deep copy (walk state excluded).
func (l *Lattice) Clone() *Lattice {
	if l == nil {
		return nil
	}
	return &Lattice{set: l.set, root: l.root.clone()}
}

func (n *node) clone() *node {
	c := &node{states: make([]Monoid, len(n.states))}
	for i, s := range n.states {
		c.states[i] = s.Clone()
	}
	if n.fields != nil {
		c.fields = make(map[string]*node, len(n.fields))
		for k, child := range n.fields {
			c.fields[k] = child.clone()
		}
	}
	if n.elem != nil {
		c.elem = n.elem.clone()
	}
	return c
}

// Union combines two lattices purely: neither argument is mutated, nil
// is the identity. Lattices of different configurations combine onto
// the union of their monoid sets, so cross-run merging through
// Repository snapshots stays total and deterministic.
func Union(a, b *Lattice) *Lattice {
	if a == nil {
		return b.Clone()
	}
	if b == nil {
		return a.Clone()
	}
	if a.set.equalShape(b.set) {
		out := a.Clone()
		out.Merge(b)
		return out
	}
	set := unionSet(a.set, b.set)
	out := set.NewLattice()
	out.root.absorb(set, a.root, remapIndex(set, a.set))
	out.root.absorb(set, b.root, remapIndex(set, b.set))
	return out
}

// remapIndex maps each def index of the union set to the matching
// index in from (-1 when from lacks the monoid).
func remapIndex(union, from *Set) []int {
	idx := make([]int, len(union.defs))
	for i, d := range union.defs {
		idx[i] = from.index(d.Name)
	}
	return idx
}

// absorb merges o into n, translating o's state layout through the
// union-set index mapping; fresh nodes come from the union set.
func (n *node) absorb(set *Set, o *node, idx []int) {
	for i, j := range idx {
		if j >= 0 {
			n.states[i].Merge(o.states[j])
		}
	}
	for k, oc := range o.fields {
		mc, ok := n.fields[k]
		if !ok {
			mc = set.newNode()
			if n.fields == nil {
				n.fields = make(map[string]*node)
			}
			n.fields[k] = mc
		}
		mc.absorb(set, oc, idx)
	}
	if o.elem != nil {
		if n.elem == nil {
			n.elem = set.newNode()
		}
		n.elem.absorb(set, o.elem, idx)
	}
}

// Empty reports whether the lattice recorded nothing.
func (l *Lattice) Empty() bool {
	return l == nil || l.root.empty()
}

func (n *node) empty() bool {
	for _, s := range n.states {
		if !s.Empty() {
			return false
		}
	}
	for _, child := range n.fields {
		if !child.empty() {
			return false
		}
	}
	return n.elem == nil || n.elem.empty()
}

// wire format: self-describing (monoid names + sketch geometry), with
// empty states and empty subtrees pruned. encoding/json sorts map
// keys, so the bytes are a pure function of the abstract state.
type wireLattice struct {
	Monoids []string   `json:"monoids"`
	Params  wireParams `json:"params"`
	Root    *wireNode  `json:"root,omitempty"`
}

// wireParams spells out the sketch geometry. Every lattice is written
// with the one geometry, and a document that declares another is
// rejected before any node is built.
type wireParams struct {
	HLLPrecision int `json:"hll_precision"`
	BloomBits    int `json:"bloom_bits"`
	BloomHashes  int `json:"bloom_hashes"`
}

var geometry = wireParams{HLLPrecision: hllPrecision, BloomBits: bloomBits, BloomHashes: bloomHashes}

type wireNode struct {
	States map[string]json.RawMessage `json:"states,omitempty"`
	Fields map[string]*wireNode       `json:"fields,omitempty"`
	Elem   *wireNode                  `json:"elem,omitempty"`
}

// MarshalJSON serializes the lattice deterministically.
func (l *Lattice) MarshalJSON() ([]byte, error) {
	root, err := l.root.wire(l.set)
	if err != nil {
		return nil, err
	}
	return json.Marshal(wireLattice{Monoids: l.set.Names(), Params: geometry, Root: root})
}

func (n *node) wire(s *Set) (*wireNode, error) {
	w := &wireNode{}
	for i, st := range n.states {
		if st.Empty() {
			continue
		}
		data, err := st.MarshalState()
		if err != nil {
			return nil, err
		}
		if w.States == nil {
			w.States = make(map[string]json.RawMessage)
		}
		w.States[s.defs[i].Name] = data
	}
	for k, child := range n.fields {
		cw, err := child.wire(s)
		if err != nil {
			return nil, err
		}
		if cw == nil {
			continue
		}
		if w.Fields == nil {
			w.Fields = make(map[string]*wireNode)
		}
		w.Fields[k] = cw
	}
	if n.elem != nil {
		ew, err := n.elem.wire(s)
		if err != nil {
			return nil, err
		}
		w.Elem = ew
	}
	if w.States == nil && w.Fields == nil && w.Elem == nil {
		return nil, nil
	}
	return w, nil
}

// UnmarshalLattice reconstructs a lattice from MarshalJSON output.
func UnmarshalLattice(data []byte) (*Lattice, error) {
	var w wireLattice
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("enrich: lattice: %w", err)
	}
	if w.Params != geometry {
		return nil, fmt.Errorf("enrich: sketch geometry %+v, want %+v", w.Params, geometry)
	}
	set, err := ParseSet(w.Monoids)
	if err != nil {
		return nil, err
	}
	l := set.NewLattice()
	if w.Root != nil {
		if err := l.root.unwire(set, w.Root); err != nil {
			return nil, err
		}
	}
	return l, nil
}

func (n *node) unwire(s *Set, w *wireNode) error {
	for name, data := range w.States {
		i := s.index(name)
		if i < 0 {
			return fmt.Errorf("enrich: state for unknown monoid %q", name)
		}
		st, err := s.defs[i].Unmarshal(data)
		if err != nil {
			return err
		}
		n.states[i] = st
	}
	for k, cw := range w.Fields {
		if cw == nil {
			continue
		}
		child := s.newNode()
		if err := child.unwire(s, cw); err != nil {
			return err
		}
		if n.fields == nil {
			n.fields = make(map[string]*node)
		}
		n.fields[k] = child
	}
	if w.Elem != nil {
		n.elem = s.newNode()
		return n.elem.unwire(s, w.Elem)
	}
	return nil
}

// Report renders the lattice as a flat path → annotations map, paths
// in the $.field[] spelling of Schema.ExpandPath. Paths with nothing
// to report are omitted.
func (l *Lattice) Report() map[string]map[string]any {
	out := make(map[string]map[string]any)
	if l != nil {
		l.root.report("$", out)
	}
	return out
}

func (n *node) report(path string, out map[string]map[string]any) {
	anns := make(map[string]any)
	for _, s := range n.states {
		for k, v := range s.Fold() {
			anns[k] = v
		}
	}
	if len(anns) > 0 {
		out[path] = anns
	}
	// Children in sorted order: the output map sorts on marshal anyway,
	// but deterministic construction keeps debugger views stable too.
	keys := make([]string, 0, len(n.fields))
	for k := range n.fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n.fields[k].report(path+"."+k, out)
	}
	if n.elem != nil {
		n.elem.report(path+"[]", out)
	}
}

// MarshalReport serializes Report deterministically; "{}" when the
// lattice is nil or recorded nothing.
func (l *Lattice) MarshalReport() ([]byte, error) {
	return json.Marshal(l.Report())
}

// A Cursor walks the lattice alongside a schema walk (see
// internal/jsonschema): Field and Elem descend, Annotations collects
// the keys that attach to a node of the given kind. The zero Cursor is
// valid everywhere and yields nothing.
type Cursor struct {
	set *Set
	n   *node
}

// Cursor returns the root cursor; usable on a nil lattice.
func (l *Lattice) Cursor() Cursor {
	if l == nil {
		return Cursor{}
	}
	return Cursor{set: l.set, n: l.root}
}

// Field descends into an object field.
func (c Cursor) Field(key string) Cursor {
	if c.n == nil {
		return Cursor{}
	}
	return Cursor{set: c.set, n: c.n.fields[key]}
}

// Elem descends into the shared array-element node.
func (c Cursor) Elem() Cursor {
	if c.n == nil {
		return Cursor{}
	}
	return Cursor{set: c.set, n: c.n.elem}
}

// Annotations returns the annotation keys of the cursor's node that
// attach to schema nodes of kind, in a fresh map the caller may modify;
// nil when there are none.
func (c Cursor) Annotations(kind Kind) map[string]any {
	if c.n == nil {
		return nil
	}
	var out map[string]any
	for i, s := range c.n.states {
		if c.set.defs[i].Kind != kind {
			continue
		}
		for k, v := range s.Fold() {
			if out == nil {
				out = make(map[string]any)
			}
			out[k] = v
		}
	}
	return out
}
