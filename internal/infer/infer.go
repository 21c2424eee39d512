// Package infer implements the first phase of the paper's approach
// (Section 5.1): the type-inference rules of Figure 4, which map every
// JSON value to a type isomorphic to it. The inferred types use no union
// types, no optional fields and no repetition types; those are introduced
// only by the fusion phase (internal/fusion).
//
// Two entry points are provided: Infer types an already-parsed
// value.Value, and a streaming decoder (Decoder) infers types while it
// reads the input, without materializing values, which is how the map
// phase processes large files. The decoder is a client of the lexer's
// walk API (internal/jsontext): it reads object keys with NextKey and
// array elements with NextElem, so the object and array grammar and its
// syntax errors are the lexer's, and it types each value from Next.
package infer

import (
	"fmt"
	"io"

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
// stream, without building intermediate value trees.
type Decoder struct {
	lex  *jsontext.Lexer
	opts jsontext.Options

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

	// fieldScratch and elemScratch hold one reusable accumulator per
	// nesting depth, so a record or array at depth d appends into the
	// same backing array on every value of the stream instead of growing
	// a fresh slice per composite value.
	fieldScratch [][]types.Field
	elemScratch  [][]types.Type

	// match decides membership for Absorb.
	match types.Matcher
}

// NewDecoder returns a streaming type decoder for r. The decoder draws
// its lexer from a pool; call Release when done with the stream to
// recycle it (failing to is safe, just slower).
func NewDecoder(r io.Reader, opts jsontext.Options) *Decoder {
	lex := jsontext.AcquireLexer(r)
	lex.RawStrings(true)
	return &Decoder{lex: lex, opts: opts}
}

// NewBytesDecoder returns a streaming type decoder reading directly
// from data — the map-task entry point. It lexes data in place, with
// no copy into a reader window, and lexes strings zero-copy: object
// keys are materialized through the lexer's intern cache (free after
// first occurrence) and value strings are never materialized at all
// unless an Observer is attached.
func NewBytesDecoder(data []byte, opts jsontext.Options) *Decoder {
	lex := jsontext.AcquireLexerBytes(data)
	lex.RawStrings(true)
	return &Decoder{lex: lex, opts: opts}
}

// Release returns the decoder's pooled resources. The decoder must not
// be used afterwards.
func (d *Decoder) Release() {
	if d.lex != nil {
		d.lex.Release()
		d.lex = nil
	}
}

// SetInterner directs the decoder to canonicalize every inferred type
// in tab: Next then returns hash-consed nodes, so callers can compare
// types by identity (Table.Ref) and deduplicate repeated shapes without
// walking them. Inference results are unchanged — the canonical node is
// structurally equal to what the plain decoder would build.
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

// Next infers the type of the next top-level value in the stream. It
// returns io.EOF at the end of the input.
func (d *Decoder) Next() (types.Type, error) {
	tok, err := d.lex.Next()
	if err != nil {
		return nil, err
	}
	if tok.Kind == jsontext.TokEOF {
		return nil, io.EOF
	}
	return d.inferValue(tok, 0)
}

// Absorb consumes the next top-level value without typing it when the
// value is a member of t, and returns the size and the structural hash
// (types.Hash) of the type Next would have inferred for it and true.
// Otherwise it returns false and leaves the stream where it was, so
// Next reads the value (or the end of input, or the error) exactly as
// if Absorb had not been called. The lexer holds the whole value in its
// window until Absorb decides. It absorbs nothing when Absorbs reports
// false.
func (d *Decoder) Absorb(t types.Type) (size int, hash uint64, ok bool) {
	if !d.Absorbs() {
		return 0, 0, false
	}
	d.lex.Pin()
	size, hash, ok = d.match.Match(d.lex, t)
	d.settle(ok)
	return size, hash, ok
}

// AbsorbSize is Absorb for a caller that tallies sizes alone: the same
// verdict and size, with no hash computed.
func (d *Decoder) AbsorbSize(t types.Type) (size int, ok bool) {
	if !d.Absorbs() {
		return 0, false
	}
	d.lex.Pin()
	size, ok = d.match.MatchSize(d.lex, t)
	d.settle(ok)
	return size, ok
}

// settle keeps the value a match took, or rewinds to its start.
func (d *Decoder) settle(absorbed bool) {
	if absorbed {
		d.lex.Unpin()
	} else {
		d.lex.Rewind()
	}
}

// Absorbs reports whether Absorb may take a value: the one gate on
// absorption. A member of a type fused under the paper's or the tuple
// strategy leaves that fusion as it is (docs/PERFORMANCE.md, "Absorbed
// members"), so skipping its typing changes no result. With an observer
// installed the decoder absorbs nothing, since enrichment must see
// every value. With a promoter installed it absorbs nothing either: the
// tagged strategy's variants break the membership lemma, and a
// promoter changes what Next infers.
func (d *Decoder) Absorbs() bool { return d.obs == nil && d.pr == nil }

// Offset returns the number of input bytes consumed so far.
func (d *Decoder) Offset() int64 { return d.lex.Offset() }

func (d *Decoder) maxDepth() int {
	if d.opts.MaxDepth <= 0 {
		return jsontext.DefaultMaxDepth
	}
	return d.opts.MaxDepth
}

func (d *Decoder) syntaxErr(off int64, format string, args ...any) error {
	return &jsontext.SyntaxError{Offset: off, Msg: fmt.Sprintf(format, args...)}
}

func (d *Decoder) inferValue(tok jsontext.Token, depth int) (types.Type, error) {
	if depth > d.maxDepth() {
		return nil, d.syntaxErr(tok.Offset, "nesting deeper than %d", d.maxDepth())
	}
	switch tok.Kind {
	case jsontext.TokNull:
		if d.obs != nil {
			d.obs.Null()
		}
		return types.Null, nil
	case jsontext.TokTrue, jsontext.TokFalse:
		if d.obs != nil {
			d.obs.Bool(tok.Kind == jsontext.TokTrue)
		}
		return types.Bool, nil
	case jsontext.TokNum:
		if d.obs != nil {
			d.obs.Num(tok.Num)
		}
		return types.Num, nil
	case jsontext.TokStr:
		if d.obs != nil {
			// The lexer runs in raw-string mode, so a value string is
			// only materialized when someone is watching.
			d.obs.Str(d.lex.InternBytes(tok.Bytes))
		}
		return types.Str, nil
	case jsontext.TokBeginObject:
		return d.inferObject(depth)
	case jsontext.TokBeginArray:
		return d.inferArray(depth)
	default:
		return nil, d.syntaxErr(tok.Offset, "unexpected %s", tok.Kind)
	}
}

// fieldsAt returns the (emptied) field accumulator for a nesting depth.
func (d *Decoder) fieldsAt(depth int) []types.Field {
	for len(d.fieldScratch) <= depth {
		d.fieldScratch = append(d.fieldScratch, nil)
	}
	return d.fieldScratch[depth][:0]
}

// elemsAt returns the (emptied) element accumulator for a nesting depth.
func (d *Decoder) elemsAt(depth int) []types.Type {
	for len(d.elemScratch) <= depth {
		d.elemScratch = append(d.elemScratch, nil)
	}
	return d.elemScratch[depth][:0]
}

func (d *Decoder) inferObject(depth int) (types.Type, error) {
	if d.obs != nil {
		d.obs.BeginObject()
	}
	fields := d.fieldsAt(depth)
	// Discriminator capture for the tagged strategy: the best (lowest
	// priority index) candidate key seen with a short string value, and
	// whether the first field's value was an object (the wrapper shape).
	tagPrio := -1
	var tagKey, tagVal string
	wrapperCand := false
	for {
		kb, off, ok, err := d.lex.NextKey(len(fields) > 0)
		if !ok {
			if err != nil {
				return nil, err
			}
			break
		}
		// Keys go through the lexer's intern cache: after the first
		// occurrence a repeated field name costs zero allocations.
		key := d.lex.InternBytes(kb)
		// Objects have few keys in practice, so a linear scan of the
		// accumulated fields beats allocating a per-object set.
		for i := range fields {
			if fields[i].Key == key {
				return nil, d.syntaxErr(off, "duplicate object key %q", key)
			}
		}
		if err != nil { // the ':' after the key
			return nil, err
		}
		if d.obs != nil {
			d.obs.Key(key)
		}
		vt, err := d.lex.Next()
		if err != nil {
			return nil, err
		}
		if d.pr != nil {
			if len(fields) == 0 && vt.Kind == jsontext.TokBeginObject {
				wrapperCand = true
			}
			if vt.Kind == jsontext.TokStr {
				for prio, cand := range d.prKeys {
					if cand != key || (tagPrio >= 0 && prio >= tagPrio) {
						continue
					}
					// Materialize the tag now — the token's bytes are only
					// valid until the next lexer call. Tags are low
					// cardinality, so the intern cache makes this free
					// after the first occurrence of each.
					if tag := d.lex.InternBytes(vt.Bytes); len(tag) <= d.prMaxTag {
						tagPrio, tagKey, tagVal = prio, key, tag
					}
					break
				}
			}
		}
		ft, err := d.inferValue(vt, depth+1)
		if err != nil {
			return nil, err
		}
		fields = append(fields, types.Field{Key: key, Type: ft})
	}
	if d.obs != nil {
		d.obs.EndObject()
	}
	d.fieldScratch[depth] = fields
	rt, err := d.buildRecord(fields)
	if err != nil || d.pr == nil {
		return rt, err
	}
	return d.promote(rt.(*types.Record), tagPrio >= 0, tagKey, tagVal, wrapperCand && len(fields) == 1), nil
}

// buildRecord turns accumulated (unique-keyed, parse-ordered) fields
// into a record type. Both paths sort in place first — an insertion
// sort, because objects are small and the keys of real datasets arrive
// nearly sorted. The interning path then probes the table before
// building, so a repeated record shape costs zero allocations; the
// plain path builds the record on one exact copy. fields is scratch
// owned by the caller and is never retained.
func (d *Decoder) buildRecord(fields []types.Field) (types.Type, error) {
	for i := 1; i < len(fields); i++ {
		f := fields[i]
		j := i - 1
		for j >= 0 && fields[j].Key > f.Key {
			fields[j+1] = fields[j]
			j--
		}
		fields[j+1] = f
	}
	if d.tab != nil {
		return d.tab.InternRecord(fields), nil
	}
	fs := make([]types.Field, len(fields))
	copy(fs, fields)
	return types.NewRecordSorted(fs)
}

// promote wraps a freshly inferred record into a single-case variants
// type when a discriminator was captured: a keyed candidate wins over
// the wrapper shape. The canonical representative is returned when an
// interner is installed (children are already canonical, so this is a
// shallow probe).
func (d *Decoder) promote(r *types.Record, keyed bool, tagKey, tagVal string, wrapper bool) types.Type {
	var t types.Type
	switch {
	case keyed:
		t = d.pr.Promote(r, tagKey, tagVal)
	case wrapper:
		t = d.pr.PromoteWrapper(r, r.Fields()[0].Key)
	default:
		return r
	}
	if d.tab != nil {
		return d.tab.Canon(t)
	}
	return t
}

func (d *Decoder) inferArray(depth int) (types.Type, error) {
	if d.obs != nil {
		d.obs.BeginArray()
	}
	elems := d.elemsAt(depth)
	for {
		ok, err := d.lex.NextElem(len(elems))
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		tok, err := d.lex.Next()
		if err != nil {
			return nil, err
		}
		et, err := d.inferValue(tok, depth+1)
		if err != nil {
			return nil, err
		}
		elems = append(elems, et)
	}
	if d.obs != nil {
		d.obs.EndArray(len(elems))
	}
	if len(elems) == 0 {
		// EmptyTuple is one shared node, pre-seeded in every table, so
		// both paths return the canonical representative.
		return types.EmptyTuple, nil
	}
	d.elemScratch[depth] = elems
	if d.tab != nil {
		return d.tab.InternTuple(elems), nil
	}
	return types.NewTuple(elems...)
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
