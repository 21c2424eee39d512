// Package infer implements the first phase of the paper's approach
// (Section 5.1): the type-inference rules of Figure 4, which map every
// JSON value to a type isomorphic to it. The inferred types use no union
// types, no optional fields and no repetition types; those are introduced
// only by the fusion phase (internal/fusion).
//
// Two entry points are provided: Infer types an already-parsed
// value.Value, and a streaming decoder (Decoder) infers types while it
// reads the input, without materializing values, which is how the map
// phase processes large files. The decoder types each value in one
// walk, which is also the map stage's membership test: walked against
// a reference type, it builds only what the reference does not already
// cover (see Decoder.Walk). It is a client of the lexer's walk API
// (internal/jsontext): it reads object keys with NextKey, or, walking
// against a reference record, with NextKeyIs when it can predict them,
// and array elements with NextElem, so the object and array grammar
// and its syntax errors are the lexer's, and it reads each value's
// first token from Next, or from NextKind when no hook wants the
// content.
package infer

import (
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"repro/internal/intern"
	"repro/internal/jsontext"
	"repro/internal/types"
	"repro/internal/value"
)

// Infer implements the judgment ⊢ V ▷ T of Figure 4. The result is
// isomorphic to the value: records map to record types with all fields
// mandatory, arrays map to positional tuple types. Key uniqueness is
// guaranteed by the value.Record invariant, mirroring the l ∉ Keys(RT)
// premise of the record rule.
//
// By Lemma 5.1 the result is sound: V ∈ ⟦Infer(V)⟧, which
// TestLemma51Soundness verifies on random values.
func Infer(v value.Value) types.Type {
	switch vv := v.(type) {
	case value.Null:
		return types.Null
	case value.Bool:
		return types.Bool
	case value.Num:
		return types.Num
	case value.Str:
		return types.Str
	case *value.Record:
		vf := vv.Fields()
		fields := make([]types.Field, len(vf))
		for i, f := range vf {
			fields[i] = types.Field{Key: f.Key, Type: Infer(f.Value)}
		}
		// Keys are unique and sorted in the record value, so this
		// cannot fail, and the record can own fields as built.
		return types.MustRecordSorted(fields)
	case value.Array:
		elems := make([]types.Type, len(vv))
		for i, e := range vv {
			elems[i] = Infer(e)
		}
		return types.MustTuple(elems...)
	default:
		panic(fmt.Sprintf("infer: unknown value %T", v))
	}
}

// An Observer receives the value events of the stream as the decoder
// infers types — the hook the enrichment lattice (internal/enrich)
// rides to compute value-level statistics in the same single pass.
// Events follow the value structure: scalars fire their kind's hook
// with the decoded value, composites bracket their children (Key fires
// before each object member's value, EndArray carries the element
// count). A value that fails to decode may leave the observer
// mid-composite; callers discard such observers (the failed chunk's
// accumulator is dropped too) or reset them.
type Observer interface {
	Null()
	Bool(b bool)
	Num(f float64)
	Str(s string)
	BeginObject()
	Key(k string)
	EndObject()
	BeginArray()
	EndArray(count int)
}

// A Promoter is the phase-one hook of a tagged-union fusion strategy
// (fusion.Promoter implements it): the decoder consults it per object
// and wraps records carrying a discriminator into single-case variants
// types. The decoder detects two discriminator shapes:
//
//   - keyed: a candidate field (CandidateKeys, priority ordered) whose
//     value is a string no longer than MaxTagLen — Promote wraps the
//     record with that key/tag pair;
//   - wrapper: an object with exactly one field whose value is an
//     object — PromoteWrapper wraps it with the field key as tag.
//
// A nil promoter (the default) leaves inference exactly as the paper
// specifies.
type Promoter interface {
	CandidateKeys() []string
	MaxTagLen() int
	Promote(r *types.Record, key, tag string) types.Type
	PromoteWrapper(r *types.Record, tag string) types.Type
}

// Decoder infers one type per top-level JSON value read from an input
// stream, without building intermediate value trees. Decoders are
// pooled with their per-depth scratch, which Release recycles.
type Decoder struct {
	lex      *jsontext.Lexer
	maxDepth int

	// tab, when set, hash-conses every inferred node so Next returns the
	// canonical representative of each distinct type (see SetInterner).
	tab *intern.Table

	// obs, when set, receives value events alongside inference.
	obs Observer

	// pr, when set, promotes discriminated records to variants types;
	// prKeys and prMaxTag cache its parameters for the per-field check.
	pr       Promoter
	prKeys   []string
	prMaxTag int

	// simp, when set, is the policy Walk simplifies arrays under.
	simp Simplifier

	// collapse and hash are the mode of the current walk: arrays
	// simplified under simp (Walk) or kept raw tuples (Next), and
	// whether hashes are computed.
	collapse, hash bool

	// tok is the token read last, with its content (see read).
	tok jsontext.Token

	// frames holds one typing scratch per nesting depth, so a record
	// or array at depth d appends into the same backing arrays on every
	// value of the stream.
	frames []frame

	// seen is a stack of bitsets, one run per open object walked
	// against a reference record, marking the fields read.
	seen []uint64

	// ref is the reference the key tables were compiled from: tables
	// holds one per record of ref that a walk visited, keys their
	// entries, and root the chain of the tables met at the top (see
	// keyTable). A walk against another reference starts them afresh.
	ref    types.Type
	tables []keyTable
	keys   []keyEntry
	root   int32
}

// A frame is the typing scratch of one nesting depth: a record's fields,
// an array's elements, and the keys of an object that its reference
// does not hold.
type frame struct {
	fields []types.Field
	elems  []types.Type
	keys   jsontext.KeySet
}

// A keyTable is a reference record compiled for member mode: its
// entries, one per field, are keys[lo:lo+len(rec.Fields())]. The
// tables a value slot met are chained through next, the index of the
// next table plus one, 0 ending the chain.
type keyTable struct {
	rec      *types.Record
	lo, next int32
}

// A keyEntry caches what member mode reads of a reference field on
// every record: its key word (types.HashKey), whether the walk may
// predict its key (jsontext.Predictable), both set on first use (ready),
// and the chain of the tables met in the field's values (kid, as
// keyTable.next).
type keyEntry struct {
	word         uint64
	kid          int32
	plain, ready bool
}

// A Simplifier is a fusion policy's rule for arrays (fusion.Options
// implements it): Array returns the array type of elements already
// simplified under the policy, as the policy's Simplify builds it. The
// walk passes its scratch, so Array must not retain elems.
type Simplifier interface {
	Array(elems []types.Type) types.Type
}

var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// NewDecoder returns a streaming type decoder for r. The decoder draws
// itself and its lexer from pools; call Release when done with the
// stream to recycle them (failing to is safe, just slower).
func NewDecoder(r io.Reader, opts jsontext.Options) *Decoder {
	return newDecoder(jsontext.AcquireLexer(r), opts)
}

// NewBytesDecoder returns a streaming type decoder reading directly
// from data — the map-task entry point. It lexes data in place, with
// no copy into a reader window, and lexes strings zero-copy: object
// keys are materialized through the lexer's intern cache (free after
// first occurrence) and value strings are never materialized at all
// unless an Observer is attached.
func NewBytesDecoder(data []byte, opts jsontext.Options) *Decoder {
	return newDecoder(jsontext.AcquireLexerBytes(data), opts)
}

func newDecoder(lex *jsontext.Lexer, opts jsontext.Options) *Decoder {
	lex.RawStrings(true)
	d := decoderPool.Get().(*Decoder)
	d.lex, d.maxDepth = lex, opts.MaxDepth
	if d.maxDepth <= 0 {
		d.maxDepth = jsontext.DefaultMaxDepth
	}
	return d
}

// Release returns the decoder's pooled resources. The decoder must not
// be used afterwards.
func (d *Decoder) Release() {
	if d.lex == nil {
		return
	}
	d.lex.Release()
	for i := range d.frames { // keep the scratch, not the types in it
		clear(d.frames[i].fields[:cap(d.frames[i].fields)])
		clear(d.frames[i].elems[:cap(d.frames[i].elems)])
	}
	clear(d.tables[:cap(d.tables)])
	*d = Decoder{frames: d.frames, seen: d.seen, tables: d.tables[:0], keys: d.keys[:0]}
	decoderPool.Put(d)
}

// SetInterner directs the decoder to canonicalize every type Next
// infers in tab: Next then returns hash-consed nodes, so callers can
// compare types by identity (Table.Ref) and deduplicate repeated
// shapes without walking them. Inference results are unchanged — the
// canonical node is structurally equal to what the plain decoder would
// build.
func (d *Decoder) SetInterner(tab *intern.Table) { d.tab = tab }

// SetObserver directs the decoder to report value events to obs while
// inferring; nil (the default) reports nothing and costs one branch
// per token.
func (d *Decoder) SetObserver(obs Observer) { d.obs = obs }

// SetPromoter installs a tagged-union promoter; nil (the default)
// infers plain record types exactly as the paper specifies.
func (d *Decoder) SetPromoter(pr Promoter) {
	d.pr = pr
	d.prKeys = nil
	d.prMaxTag = 0
	if pr != nil {
		d.prKeys = pr.CandidateKeys()
		d.prMaxTag = pr.MaxTagLen()
	}
}

// SetSimplifier sets the policy under which Walk simplifies arrays;
// nil (the default) leaves them raw tuples.
func (d *Decoder) SetSimplifier(s Simplifier) { d.simp = s }

// Next infers the raw type of the next top-level value in the stream,
// Infer's, with positional tuples for its arrays. It returns io.EOF at
// the end of the input.
func (d *Decoder) Next() (types.Type, error) {
	d.collapse, d.hash = false, false
	t, _, _, err := d.top(nil)
	return t, err
}

// Walk types the next top-level value in one pass against ref, the
// map stage's reference type, and returns its walked type T′ with the
// size and structural hash (types.Hash) of Infer(v); with hash false
// the hash is 0. It returns io.EOF at the end of the input.
//
// T′ is nil when the value is a member of ref, and then nothing is
// built. Otherwise T′ is Infer(v) simplified under the Simplifier,
// except that each subtree of the value that is a member of ref's
// matching subtree is that subtree of ref, node for node. By the
// subtree lemma (docs/PERFORMANCE.md, "One walk"), Fuse(F, T′) =
// Fuse(F, Simplify(Infer(v))) for F = ref and for any F that covers
// ref. With a nil ref, or a decoder that does not absorb, T′ is
// exactly Simplify(Infer(v)).
func (d *Decoder) Walk(ref types.Type, hash bool) (types.Type, int, uint64, error) {
	if !d.Absorbs() {
		ref = nil
	}
	d.collapse, d.hash = d.simp != nil, hash
	return d.top(ref)
}

// Absorbs reports whether Walk takes a reference: the one gate on
// absorption. A member of a type fused under the paper's or the tuple
// strategy leaves that fusion as it is (docs/PERFORMANCE.md, "Absorbed
// members"), so skipping its typing changes no result. With an observer
// installed the decoder absorbs nothing, since enrichment must see
// every value. With a promoter installed it absorbs nothing either: the
// tagged strategy's variants break the membership lemma, and a
// promoter changes what the walk infers.
func (d *Decoder) Absorbs() bool { return d.obs == nil && d.pr == nil }

// Offset returns the number of input bytes consumed so far.
func (d *Decoder) Offset() int64 { return d.lex.Offset() }

func (d *Decoder) syntaxErr(off int64, format string, args ...any) error {
	return &jsontext.SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

// top walks the next top-level value against ref.
func (d *Decoder) top(ref types.Type) (types.Type, int, uint64, error) {
	d.seen = d.seen[:0]
	if ref != d.ref {
		clear(d.tables)
		d.ref, d.tables, d.keys, d.root = ref, d.tables[:0], d.keys[:0], 0
	}
	k, off, err := d.read()
	if err != nil {
		return nil, 0, 0, err
	}
	if k == jsontext.TokEOF {
		return nil, 0, 0, io.EOF
	}
	t, size, h, err := d.value(k, off, ref, -1, 0)
	if !d.hash {
		h = 0
	}
	return t, size, h, err
}

// read reads the next token and returns its kind and offset. It reads
// the content too, into d.tok, only when a hook wants it: the observer
// every scalar's, the promoter a tag's.
func (d *Decoder) read() (jsontext.TokenKind, int64, error) {
	if d.obs == nil && d.pr == nil {
		return d.lex.NextKind()
	}
	var err error
	d.tok, err = d.lex.Next()
	return d.tok.Kind, d.tok.Offset, err
}

// value walks the value whose first token, of kind k at offset off,
// read has read, against ref (nil: no reference). It returns the walked
// type, nil for a member of ref, and the size and hash of the value's
// raw type. A value is walked in member mode while it matches ref,
// building nothing; from its first mismatch it is typed, keeping ref's
// nodes for the members read so far. slot is where the key tables of
// ref's records are found (see keyTable).
func (d *Decoder) value(k jsontext.TokenKind, off int64, ref types.Type, slot, depth int) (types.Type, int, uint64, error) {
	if depth > d.maxDepth {
		return nil, 0, 0, d.syntaxErr(off, "nesting deeper than %d", d.maxDepth)
	}
	var b types.Basic
	switch k {
	case jsontext.TokNull:
		b = types.Null
	case jsontext.TokTrue, jsontext.TokFalse:
		b = types.Bool
	case jsontext.TokNum:
		b = types.Num
	case jsontext.TokStr:
		b = types.Str
	case jsontext.TokBeginObject:
		return d.object(ref, slot, depth)
	case jsontext.TokBeginArray:
		return d.array(ref, slot, depth)
	default:
		return nil, 0, 0, d.syntaxErr(off, "unexpected %s", k)
	}
	if d.obs != nil {
		d.observe(k)
	}
	h := types.HashBasic(b) // cheaper than a branch; top drops it when unwanted
	if u, ok := ref.(*types.Union); ok {
		ref = altOfKind(u, types.Kind(b))
	}
	if rb, ok := ref.(types.Basic); ok && rb == b {
		return nil, 1, h, nil
	}
	return b, 1, h, nil
}

// observe reports the scalar just read, of kind k, to the observer.
func (d *Decoder) observe(k jsontext.TokenKind) {
	switch k {
	case jsontext.TokNull:
		d.obs.Null()
	case jsontext.TokTrue, jsontext.TokFalse:
		d.obs.Bool(k == jsontext.TokTrue)
	case jsontext.TokNum:
		d.obs.Num(d.tok.Num)
	default:
		// The lexer runs in raw-string mode, so a value string is only
		// materialized when someone is watching.
		d.obs.Str(d.lex.InternBytes(d.tok.Bytes))
	}
}

// altOfKind returns the alternative of u of kind k, or nil when there
// is none, or more than one (a union outside normal form).
func altOfKind(u *types.Union, k types.Kind) types.Type {
	var alt types.Type
	for _, a := range u.Alts() {
		if ak, _ := types.KindOf(a); ak == k {
			if alt != nil {
				return nil
			}
			alt = a
		}
	}
	return alt
}

// frame returns the typing scratch of depth, emptied for a new value.
// The pointer is valid until a deeper frame is added.
func (d *Decoder) frame(depth int) *frame {
	for len(d.frames) <= depth {
		d.frames = append(d.frames, frame{})
	}
	f := &d.frames[depth]
	f.fields, f.elems = f.fields[:0], f.elems[:0]
	f.keys.Reset()
	return f
}

// keyTable returns the offset in d.keys of the entries of r's key
// table, compiling the table when r is new to slot: the entry, in
// d.keys, of the reference field whose value is walked, or -1 for the
// top. A slot chains one table per record met in its values, at most
// one per array depth below it and one per tuple position, so the
// tables of a reference hold at most one entry per field of its tree.
// The entries are cleared, and compiled on first use (key).
func (d *Decoder) keyTable(r *types.Record, slot int) int {
	head := &d.root
	if slot >= 0 {
		head = &d.keys[slot].kid
	}
	for t := *head; t != 0; t = d.tables[t-1].next {
		if d.tables[t-1].rec == r {
			return int(d.tables[t-1].lo)
		}
	}
	lo, n := len(d.keys), len(r.Fields())
	d.tables = append(d.tables, keyTable{rec: r, lo: int32(lo), next: *head})
	*head = int32(len(d.tables))
	d.keys = slices.Grow(d.keys, n)[:lo+n]
	clear(d.keys[lo:])
	return lo
}

// key returns entry j of d.keys, the entry of the reference field keyed
// key, compiling it on first use. The pointer is valid until the next
// table is compiled.
func (d *Decoder) key(j int, key string) *keyEntry {
	e := &d.keys[j]
	if !e.ready {
		e.compile(key)
	}
	return e
}

// compile sets the entry of the reference field keyed key. Its word is
// a mandatory field's whatever the reference says: it hashes the
// inferred type, whose fields are all mandatory.
func (e *keyEntry) compile(key string) {
	e.word, e.plain, e.ready = types.HashKey(key, false), jsontext.Predictable(key), true
}

// An objectWalk is the state of an object's walk that typing takes
// over: the reference's fields fs (nil: none) with their key table at
// lo, the object's run in seen from base, the members read (n), the
// hint for the next key, the size so far, the sum of the hash words of
// the members read (types.HashRecord) and the fields typed so far. With
// pending set, key is a key read but not yet walked, with its offset and
// the error of the ':' after it.
type objectWalk struct {
	depth         int
	fs            []types.Field
	lo, base      int
	n, next, size int
	sum           uint64
	fields        []types.Field
	pending       bool
	key           []byte
	off           int64
	err           error
}

// object walks the members of an object whose '{' has been read: in
// member mode against a reference record, else typed.
func (d *Decoder) object(ref types.Type, slot, depth int) (types.Type, int, uint64, error) {
	if u, ok := ref.(*types.Union); ok {
		ref = altOfKind(u, types.KindRecord)
	}
	if r, ok := ref.(*types.Record); ok {
		return d.matchObject(r, slot, depth)
	}
	if d.obs != nil {
		d.obs.BeginObject()
	}
	f := d.frame(depth)
	return d.typeObject(objectWalk{depth: depth, base: len(d.seen), size: 1, fields: f.fields})
}

// matchObject walks an object's members in member mode against the
// reference record r, as a membership test does. Each key is first
// predicted to be the field after the previous match, which the
// lexer checks with a byte compare (NextKeyIs); a key out of that order
// costs a read and a lookup in r's fields. A bit in the seen bitset
// catches a repeated key, and with hashing the member's word joins the
// object's sum. At the first mismatch it hands the walk over to
// typeObject.
func (d *Decoder) matchObject(r *types.Record, slot, depth int) (types.Type, int, uint64, error) {
	fs := r.Fields()
	lo := d.keyTable(r, slot)
	base := len(d.seen)
	d.seen = append(d.seen, make([]uint64, (len(fs)+63)/64)...)
	size, mandatory, next, n := 1, 0, 0, 0
	var sum uint64
	for ; ; n++ {
		i, off, ok, kw := next, int64(0), false, uint64(0)
		if next < len(fs) {
			if e := d.key(lo+next, fs[next].Key); e.plain {
				off, ok = d.lex.NextKeyIs(n > 0, fs[next].Key)
				kw = e.word
			}
		}
		var colon error // the ':' after the key
		if !ok {
			kb, koff, more, err := d.lex.NextKey(n > 0)
			if !more {
				if err != nil {
					return nil, 0, 0, err
				}
				break
			}
			if i = fieldIndex(fs, kb, next); i < 0 {
				w := d.unmatch(objectWalk{depth: depth, fs: fs, lo: lo, base: base, n: n, next: next, size: size, sum: sum, pending: true, key: kb, off: koff, err: err})
				return d.typeObject(w)
			}
			off, colon, kw = koff, err, d.key(lo+i, fs[i].Key).word
		}
		sw, bit := base+int(uint(i)/64), uint64(1)<<(uint(i)%64)
		if d.seen[sw]&bit != 0 {
			return nil, 0, 0, d.syntaxErr(off, "duplicate object key %q", fs[i].Key)
		}
		if colon != nil {
			return nil, 0, 0, colon
		}
		if !fs[i].Optional {
			mandatory++
		}
		next = i + 1
		k, voff, err := d.lex.NextKind()
		if err != nil {
			return nil, 0, 0, err
		}
		ct, cs, ch, err := d.value(k, voff, fs[i].Type, lo+i, depth+1)
		if err != nil {
			return nil, 0, 0, err
		}
		size += 1 + cs
		if d.hash {
			sum += types.HashField(kw, ch)
		}
		if ct != nil {
			w := d.unmatch(objectWalk{depth: depth, fs: fs, lo: lo, base: base, n: n + 1, next: next, size: size, sum: sum})
			d.seen[sw] |= bit
			w.fields = append(w.fields, types.Field{Key: fs[i].Key, Type: ct})
			return d.typeObject(w)
		}
		d.seen[sw] |= bit
	}
	if mandatory != r.Mandatory() { // a mandatory field is missing
		return d.endObject(d.unmatch(objectWalk{depth: depth, fs: fs, lo: lo, base: base, n: n, size: size, sum: sum}), nil)
	}
	d.seen = d.seen[:base]
	return nil, size, types.HashRecord(sum), nil // top drops the hash when unwanted
}

// unmatch readies w, a member-mode object walk, for typing: it fills
// the frame's fields with the members read so far, each the
// reference's own node, in key order, the order of the seen bitset.
func (d *Decoder) unmatch(w objectWalk) objectWalk {
	f := d.frame(w.depth)
	for sw, bs := range d.seen[w.base:] {
		for ; bs != 0; bs &= bs - 1 {
			i := sw*64 + bits.TrailingZeros64(bs)
			f.fields = append(f.fields, types.Field{Key: w.fs[i].Key, Type: w.fs[i].Type})
		}
	}
	w.fields = f.fields
	return w
}

// typeObject types the rest of an object's members from w: a member
// the reference holds is still walked against the field's type, any
// other with no reference, and its key goes to the frame's key set.
func (d *Decoder) typeObject(w objectWalk) (types.Type, int, uint64, error) {
	fields, size, next, sum := w.fields, w.size, w.next, w.sum
	tc := tagCapture{prio: -1}
	for ; ; w.n++ {
		kb, off, ok, err := w.key, w.off, true, w.err
		if !w.pending {
			kb, off, ok, err = d.lex.NextKey(w.n > 0)
		}
		w.pending = false
		if !ok {
			if err != nil {
				return nil, 0, 0, err
			}
			break
		}
		i, key, repeated := -1, "", false
		if w.fs != nil {
			i = fieldIndex(w.fs, kb, next)
		}
		if i >= 0 {
			key, next = w.fs[i].Key, i+1
			repeated = d.seen[w.base+i/64]&(1<<(i%64)) != 0
			d.seen[w.base+i/64] |= 1 << (i % 64)
		} else {
			// Keys go through the lexer's intern cache: after the first
			// occurrence a repeated field name costs zero allocations.
			key = d.lex.InternBytes(kb)
			repeated = d.frames[w.depth].keys.Add(key)
		}
		if repeated {
			return nil, 0, 0, d.syntaxErr(off, "duplicate object key %q", key)
		}
		if err != nil { // the ':' after the key
			return nil, 0, 0, err
		}
		if d.obs != nil {
			d.obs.Key(key)
		}
		vk, voff, err := d.read()
		if err != nil {
			return nil, 0, 0, err
		}
		if d.pr != nil {
			d.capture(&tc, w.n, key, vk)
		}
		cref, slot := types.Type(nil), -1
		if i >= 0 {
			cref, slot = w.fs[i].Type, w.lo+i
		}
		ct, cs, ch, err := d.value(vk, voff, cref, slot, w.depth+1)
		if err != nil {
			return nil, 0, 0, err
		}
		size += 1 + cs
		if ct == nil {
			ct = cref
		}
		fields = append(fields, types.Field{Key: key, Type: ct})
		if d.hash {
			var kw uint64
			if i >= 0 {
				kw = d.key(w.lo+i, key).word
			} else {
				kw = types.HashKey(key, false) // inferred fields are mandatory
			}
			sum += types.HashField(kw, ch)
		}
	}
	if d.obs != nil {
		d.obs.EndObject()
	}
	w.fields, w.size, w.sum = fields, size, sum
	return d.endObject(w, &tc)
}

// endObject builds the record type an object's walk typed, promoting
// it as tc says when a promoter is installed.
func (d *Decoder) endObject(w objectWalk, tc *tagCapture) (types.Type, int, uint64, error) {
	d.seen = d.seen[:w.base]
	d.frames[w.depth].fields = w.fields
	sortFields(w.fields)
	h := types.HashRecord(w.sum) // top drops the hash when unwanted
	rt, err := d.buildRecord(w.fields)
	if err != nil || d.pr == nil {
		return rt, w.size, h, err
	}
	t := d.promote(rt.(*types.Record), tc, w.n)
	if v, ok := t.(*types.Variants); ok {
		w.size += 2 // a single-case variants type adds its node and its case's
		h = types.HashPromoted(v, w.sum)
	}
	return t, w.size, h, nil
}

// fieldIndex returns the index of the field keyed key in fs, or -1.
// Objects mostly list their keys in the type's (sorted) order, so the
// field after the previous match, at hint, is tried first.
func fieldIndex(fs []types.Field, key []byte, hint int) int {
	if hint < len(fs) && fs[hint].Key == string(key) {
		return hint
	}
	lo, hi := 0, len(fs)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); fs[mid].Key < string(key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(fs) && fs[lo].Key == string(key) {
		return lo
	}
	return -1
}

// sortFields sorts fields by key: by insertion for a small object,
// whose keys real datasets list nearly sorted, and in O(n log n) for a
// wide one.
func sortFields(fields []types.Field) {
	if len(fields) > 32 {
		slices.SortFunc(fields, func(a, b types.Field) int { return strings.Compare(a.Key, b.Key) })
		return
	}
	for i := 1; i < len(fields); i++ {
		for j := i; j > 0 && fields[j-1].Key > fields[j].Key; j-- {
			fields[j-1], fields[j] = fields[j], fields[j-1]
		}
	}
}

// buildRecord turns sorted, unique-keyed fields into a record type.
// The interning path probes the table before building, so a repeated
// record shape costs zero allocations; the plain path builds the
// record on one exact copy. fields is scratch owned by the caller and
// is never retained.
func (d *Decoder) buildRecord(fields []types.Field) (types.Type, error) {
	if d.tab != nil {
		return d.tab.InternRecord(fields), nil
	}
	return types.NewRecordSorted(slices.Clone(fields))
}

// A tagCapture is the discriminator an object offers the tagged
// strategy's promoter: the best (lowest priority index) candidate key
// seen with a short string value, and whether the first member's value
// was an object (the wrapper shape).
type tagCapture struct {
	prio     int // -1: no candidate key
	key, tag string
	wrapper  bool
}

// capture updates c with the n-th member of an object, keyed key,
// whose value starts with a token of kind k, read into d.tok.
func (d *Decoder) capture(c *tagCapture, n int, key string, k jsontext.TokenKind) {
	c.wrapper = c.wrapper || (n == 0 && k == jsontext.TokBeginObject)
	if k != jsontext.TokStr {
		return
	}
	for prio, cand := range d.prKeys {
		if cand != key || (c.prio >= 0 && prio >= c.prio) {
			continue
		}
		// Materialize the tag now — the token's bytes are only valid
		// until the next lexer call. Tags are low cardinality, so the
		// intern cache makes this free after the first occurrence of
		// each.
		if tag := d.lex.InternBytes(d.tok.Bytes); len(tag) <= d.prMaxTag {
			c.prio, c.key, c.tag = prio, key, tag
		}
		return
	}
}

// promote wraps a freshly inferred record of n fields into a
// single-case variants type when a discriminator was captured: a keyed
// candidate wins over the wrapper shape. The canonical representative
// is returned when an interner is installed (children are already
// canonical, so this is a shallow probe).
func (d *Decoder) promote(r *types.Record, c *tagCapture, n int) types.Type {
	var t types.Type
	switch {
	case c.prio >= 0:
		t = d.pr.Promote(r, c.key, c.tag)
	case c.wrapper && n == 1:
		t = d.pr.PromoteWrapper(r, r.Fields()[0].Key)
	default:
		return r
	}
	if d.tab != nil {
		return d.tab.Canon(t)
	}
	return t
}

// An arrayWalk is the state of an array's walk that typing takes
// over: the reference, [elem*] or the tuple pos (both nil: none), with
// the slot of its key tables, the elements read (n), the size and hash
// so far, and the elements typed so far.
type arrayWalk struct {
	depth   int
	slot    int
	elem    types.Type
	pos     []types.Type
	n, size int
	h       uint64
	elems   []types.Type
}

// array walks the elements of an array whose '[' has been read: in
// member mode against a reference [T*] or tuple, else typed. Its
// elements share its slot.
func (d *Decoder) array(ref types.Type, slot, depth int) (types.Type, int, uint64, error) {
	if u, ok := ref.(*types.Union); ok {
		ref = altOfKind(u, types.KindArray)
	}
	switch rt := ref.(type) {
	case *types.Repeated:
		return d.matchArray(rt.Elem(), nil, slot, depth)
	case *types.Tuple:
		return d.matchArray(nil, rt.Elems(), slot, depth)
	}
	if d.obs != nil {
		d.obs.BeginArray()
	}
	return d.typeArray(arrayWalk{depth: depth, slot: slot, size: 1, h: types.HashOpen(), elems: d.frame(depth).elems})
}

// matchArray walks an array's elements in member mode, against elem,
// or position by position against pos. The array is a member when all
// its elements are and the reference is [elem*] or a tuple of its
// length. At the first element that is not, it hands the walk over to
// typeArray.
func (d *Decoder) matchArray(elem types.Type, pos []types.Type, slot, depth int) (types.Type, int, uint64, error) {
	size, h, n := 1, types.HashOpen(), 0
	for ; ; n++ {
		ok, err := d.lex.NextElem(n)
		if err != nil {
			return nil, 0, 0, err
		}
		if !ok {
			break
		}
		k, off, err := d.lex.NextKind()
		if err != nil {
			return nil, 0, 0, err
		}
		eref := elem
		if n < len(pos) {
			eref = pos[n]
		}
		et, es, eh, err := d.value(k, off, eref, slot, depth+1)
		if err != nil {
			return nil, 0, 0, err
		}
		size += es
		if d.hash {
			h = types.HashMix(h, eh)
		}
		if et != nil {
			elems := append(d.refElems(depth, elem, pos, n), et)
			return d.typeArray(arrayWalk{depth: depth, slot: slot, elem: elem, pos: pos, n: n + 1, size: size, h: h, elems: elems})
		}
	}
	if h = types.HashClose(h); !d.hash {
		h = 0
	}
	if pos == nil || n == len(pos) {
		return nil, size, h, nil
	}
	// Shorter than the tuple.
	return d.endArray(depth, d.refElems(depth, elem, pos, n)), size, h, nil
}

// refElems returns the frame's elements holding the first n elements
// of a member-mode array walk at depth, each the reference's own node.
func (d *Decoder) refElems(depth int, elem types.Type, pos []types.Type, n int) []types.Type {
	f := d.frame(depth)
	if elem == nil {
		f.elems = append(f.elems, pos[:n]...)
		return f.elems
	}
	for range n {
		f.elems = append(f.elems, elem)
	}
	return f.elems
}

// typeArray types the rest of an array's elements from w, each walked
// against its reference element, if any.
func (d *Decoder) typeArray(w arrayWalk) (types.Type, int, uint64, error) {
	elems, size, h, n := w.elems, w.size, w.h, w.n
	for ; ; n++ {
		ok, err := d.lex.NextElem(n)
		if err != nil {
			return nil, 0, 0, err
		}
		if !ok {
			break
		}
		k, off, err := d.read()
		if err != nil {
			return nil, 0, 0, err
		}
		eref := w.elem
		if n < len(w.pos) {
			eref = w.pos[n]
		}
		et, es, eh, err := d.value(k, off, eref, w.slot, w.depth+1)
		if err != nil {
			return nil, 0, 0, err
		}
		size += es
		if d.hash {
			h = types.HashMix(h, eh)
		}
		if et == nil {
			et = eref
		}
		elems = append(elems, et)
	}
	if d.obs != nil {
		d.obs.EndArray(n)
	}
	if h = types.HashClose(h); !d.hash {
		h = 0
	}
	return d.endArray(w.depth, elems), size, h, nil
}

// endArray builds the array type an array's walk typed.
func (d *Decoder) endArray(depth int, elems []types.Type) types.Type {
	d.frames[depth].elems = elems
	return d.buildArray(elems)
}

// buildArray turns walked elements into an array type: a raw tuple for
// Next, or for Walk the Simplifier's array. elems is scratch owned by
// the caller and is never retained.
func (d *Decoder) buildArray(elems []types.Type) types.Type {
	switch {
	case d.collapse:
		return d.simp.Array(elems)
	case len(elems) == 0:
		// EmptyTuple is one shared node, pre-seeded in every table, so
		// both paths return the canonical representative.
		return types.EmptyTuple
	case d.tab != nil:
		return d.tab.InternTuple(elems)
	}
	return types.MustTuple(elems...)
}

// InferAll infers one type per top-level JSON value in data.
func InferAll(data []byte) ([]types.Type, error) {
	return InferAllWith(data, nil, nil)
}

// InferAllWith is InferAll with value events reported to obs and a
// tagged-union promoter (both may be nil) — the fully optioned map
// stage.
func InferAllWith(data []byte, obs Observer, pr Promoter) ([]types.Type, error) {
	var ts []types.Type
	d := NewBytesDecoder(data, jsontext.Options{})
	defer d.Release()
	if obs != nil {
		d.SetObserver(obs)
	}
	if pr != nil {
		d.SetPromoter(pr)
	}
	for {
		t, err := d.Next()
		if err == io.EOF {
			return ts, nil
		}
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
}

// DedupAllWith infers the types of all top-level JSON values in data as
// a multiset over tab: one entry per distinct type with its occurrence
// count. This is the deduplicating map phase — a chunk of n records
// reduces to its distinct shapes, and the fold over those shapes yields
// exactly the same fused type as folding all n per-record types, because
// fusion is commutative, associative and idempotent. Value events go to
// obs and a tagged-union promoter pr applies (both may be nil).
// Observation stays per record: the multiset deduplicates types, not
// values, and enrichment wants every value.
func DedupAllWith(data []byte, tab *intern.Table, obs Observer, pr Promoter) (*intern.Multiset, error) {
	ms := intern.NewMultiset()
	d := NewBytesDecoder(data, jsontext.Options{})
	defer d.Release()
	d.SetInterner(tab)
	if obs != nil {
		d.SetObserver(obs)
	}
	if pr != nil {
		d.SetPromoter(pr)
	}
	for {
		t, err := d.Next()
		if err == io.EOF {
			return ms, nil
		}
		if err != nil {
			return nil, err
		}
		ref, ok := tab.Ref(t)
		if !ok {
			// Unreachable under the interner invariant, but keep the
			// multiset sound if it ever breaks.
			ref, _ = tab.Ref(tab.Canon(t))
		}
		ms.Add(ref, 1)
	}
}
