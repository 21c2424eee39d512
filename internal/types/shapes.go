package types

// Shapes is a structural numbering of the composite nodes of a type,
// or of several taken together: every node but the basic types and ε.
// Two nodes share a shape id exactly when their subtrees are equal: the
// same kind, keys, optional flags, tags, discriminator and mode, and
// children with the same ids. A hash only picks the candidates;
// equality is always checked, so a collision cannot merge two shapes.
// The writers that render a type node by node, the JSON Schema export
// and the codec's encoder, use it to render each repeated subtree once
// and copy its bytes on every repeat; a snapshot's writer, to write it
// once in a table that every repeat refers to.
//
// Nodes are numbered by their position in a preorder walk, children in
// the order of the type's own slices: a record's fields, a tuple's
// elements, an array's or a map's element, a union's alternatives, a
// tagged union's case records and then its Other record. A writer
// walks alongside: the node at position p has its first composite child
// at p+1, and each composite child's subtree ends (End) where the next
// child's begins (Skip).
type Shapes struct {
	ids    []int32 // by position
	shapes []shape // by id
	table  []int32 // open addressing on the hash: 1 + id, 0 when empty
}

// A shape is one class of equal subtrees.
type shape struct {
	t     Type  // the first node of the shape, compared against candidates
	pos   int32 // its position
	size  int32 // composite nodes in the subtree, itself included
	count int32 // nodes of the shape in the type
	hash  uint32
}

// NumberShapes numbers the composite nodes of ts, bottom up, as one
// type whose subtrees are the ts in order: a shape repeated across two
// of them gets one id, and the first composite node of each t sits
// where the subtree of the one before it ends.
func NumberShapes(ts ...Type) *Shapes {
	n := 0
	for _, t := range ts {
		if _, leaf := leafID(t); !leaf {
			n += 1 + composites(t)
		}
	}
	s := &Shapes{ids: make([]int32, 0, n), shapes: make([]shape, 0, min(n, 256))}
	s.table = make([]int32, tableSize(cap(s.shapes)))
	for _, t := range ts {
		s.kid(t)
	}
	return s
}

// tableSize is the smallest power of two at least twice n, so the
// table stays at most half full.
func tableSize(n int) int {
	size := 8
	for size < 2*n {
		size *= 2
	}
	return size
}

// composites counts the composite nodes below t.
func composites(t Type) int {
	n := 0
	add := func(t Type) {
		if _, leaf := leafID(t); !leaf {
			n += 1 + composites(t)
		}
	}
	switch tt := t.(type) {
	case *Record:
		for _, f := range tt.fields {
			add(f.Type)
		}
	case *Tuple:
		for _, e := range tt.elems {
			add(e)
		}
	case *Repeated:
		add(tt.elem)
	case *Map:
		add(tt.elem)
	case *Union:
		for _, a := range tt.alts {
			add(a)
		}
	case *Variants:
		for _, c := range tt.cases {
			add(c.Type)
		}
		if tt.other != nil {
			add(tt.other)
		}
	}
	return n
}

// Len returns the number of shapes: every id is below it.
func (s *Shapes) Len() int { return len(s.shapes) }

// Shared returns the shape id of t, a node at position pos, and
// whether another node of the type has the same shape; false for a
// basic type or ε, which have no position.
func (s *Shapes) Shared(t Type, pos int) (int, bool) {
	if _, leaf := leafID(t); leaf {
		return 0, false
	}
	id := s.ids[pos]
	return int(id), s.shapes[id].count > 1
}

// End returns the position just past the subtree of the composite node
// at position pos.
func (s *Shapes) End(pos int) int { return pos + int(s.shapes[s.ids[pos]].size) }

// Skip returns the position just past the subtree of t, a node whose
// position, if it is composite, is pos.
func (s *Shapes) Skip(t Type, pos int) int {
	if _, leaf := leafID(t); leaf {
		return pos
	}
	return s.End(pos)
}

// kid numbers the subtree of a child t and returns t's id, leafID's
// for a basic type or ε.
func (s *Shapes) kid(t Type) int32 {
	if id, leaf := leafID(t); leaf {
		return id
	}
	return s.number(t)
}

// number numbers the subtree of a composite node t from the next free
// position and returns t's id.
func (s *Shapes) number(t Type) int32 {
	h := fnvOffset
	switch tt := t.(type) {
	case *Record:
		h = hashByte(h, 0x03)
	case *Tuple:
		h = hashByte(h, 0x06)
	case *Repeated:
		h = hashByte(h, 0x08)
	case *Map:
		h = hashByte(h, 0x05)
	case *Union:
		h = hashByte(h, 0x09)
	case *Variants:
		h = tt.hashHead(h)
	}
	pos := len(s.ids)
	s.ids = append(s.ids, 0)
	switch tt := t.(type) {
	case *Record:
		for _, f := range tt.fields {
			h = hashWord(hashString(h, f.Key), uint64(s.kid(f.Type)))
			if f.Optional {
				h = hashByte(h, 0x10)
			}
		}
	case *Tuple:
		for _, e := range tt.elems {
			h = hashWord(h, uint64(s.kid(e)))
		}
	case *Repeated:
		h = hashWord(h, uint64(s.kid(tt.elem)))
	case *Map:
		h = hashWord(h, uint64(s.kid(tt.elem)))
	case *Union:
		for _, a := range tt.alts {
			h = hashWord(h, uint64(s.kid(a)))
		}
	case *Variants:
		for _, c := range tt.cases {
			h = hashWord(hashString(h, c.Tag), uint64(s.kid(c.Type)))
		}
		if tt.other != nil {
			h = hashWord(hashByte(h, 0x15), uint64(s.kid(tt.other)))
		}
	}
	id := s.intern(t, pos, uint32(h^h>>32))
	s.ids[pos] = id
	return id
}

// intern returns the id of the shape of t, whose children are numbered
// and whose hash is h, adding a shape when no earlier node is equal.
func (s *Shapes) intern(t Type, pos int, h uint32) int32 {
	if 2*(len(s.shapes)+1) > len(s.table) {
		s.grow()
	}
	mask := uint32(len(s.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := s.table[i]
		if e == 0 {
			id := int32(len(s.shapes))
			s.shapes = append(s.shapes, shape{t: t, pos: int32(pos), size: int32(len(s.ids) - pos), count: 1, hash: h})
			s.table[i] = id + 1
			return id
		}
		if sh := &s.shapes[e-1]; sh.hash == h && s.same(sh.t, int(sh.pos), t, pos) {
			sh.count++
			return e - 1
		}
	}
}

// grow doubles the table.
func (s *Shapes) grow() {
	s.table = make([]int32, 2*len(s.table))
	mask := uint32(len(s.table) - 1)
	for id, sh := range s.shapes {
		i := sh.hash & mask
		for s.table[i] != 0 {
			i = (i + 1) & mask
		}
		s.table[i] = int32(id) + 1
	}
}

// same reports whether the numbered nodes a, at position pa, and b, at
// pb, have the same shape: equal headers and children of equal ids.
func (s *Shapes) same(a Type, pa int, b Type, pb int) bool {
	ca, cb := pa+1, pb+1
	kids := func(x, y Type) bool {
		var ix, iy int32
		ix, ca = s.child(x, ca)
		iy, cb = s.child(y, cb)
		return ix == iy
	}
	switch at := a.(type) {
	case *Record:
		bt, ok := b.(*Record)
		if !ok || len(at.fields) != len(bt.fields) {
			return false
		}
		for i, f := range at.fields {
			g := bt.fields[i]
			if f.Key != g.Key || f.Optional != g.Optional || !kids(f.Type, g.Type) {
				return false
			}
		}
		return true
	case *Tuple:
		bt, ok := b.(*Tuple)
		if !ok || len(at.elems) != len(bt.elems) {
			return false
		}
		for i, e := range at.elems {
			if !kids(e, bt.elems[i]) {
				return false
			}
		}
		return true
	case *Repeated:
		bt, ok := b.(*Repeated)
		return ok && kids(at.elem, bt.elem)
	case *Map:
		bt, ok := b.(*Map)
		return ok && kids(at.elem, bt.elem)
	case *Union:
		bt, ok := b.(*Union)
		if !ok || len(at.alts) != len(bt.alts) {
			return false
		}
		for i, x := range at.alts {
			if !kids(x, bt.alts[i]) {
				return false
			}
		}
		return true
	case *Variants:
		bt, ok := b.(*Variants)
		if !ok || at.key != bt.key || at.wrapper != bt.wrapper || at.collapsed != bt.collapsed ||
			len(at.cases) != len(bt.cases) || (at.other == nil) != (bt.other == nil) {
			return false
		}
		for i, c := range at.cases {
			if c.Tag != bt.cases[i].Tag || !kids(c.Type, bt.cases[i].Type) {
				return false
			}
		}
		return at.other == nil || kids(at.other, bt.other)
	}
	return false
}

// child returns the id of a numbered child t at position pos and the
// position just past it.
func (s *Shapes) child(t Type, pos int) (int32, int) {
	if id, ok := leafID(t); ok {
		return id, pos
	}
	return s.ids[pos], s.End(pos)
}

// leafID returns the id of a basic type or ε, negative so that it
// never meets a shape's, and false for a composite node.
func leafID(t Type) (int32, bool) {
	switch tt := t.(type) {
	case Basic:
		return -1 - int32(tt), true
	case EmptyType:
		return -1 - int32(Str) - 1, true
	}
	return 0, false
}
