package types

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/jsontext"
	"repro/internal/value"
)

// Member implements the semantic interpretation ⟦T⟧ of Section 4 as a
// decision procedure: it reports whether the JSON value v belongs to the
// set of values denoted by the type t.
//
//   - no value belongs to ε;
//   - basic values belong to their basic type;
//   - a record belongs to a record type iff every field of the record is
//     typed by a same-key field of the type and every mandatory field of
//     the type is present in the record;
//   - an array belongs to a tuple type iff they have the same length and
//     elements belong positionally;
//   - an array belongs to [T*] iff every element belongs to T (so the
//     empty array belongs to every [T*], including [ε*]);
//   - a value belongs to a union iff it belongs to some alternative.
func Member(v value.Value, t Type) bool {
	switch tt := t.(type) {
	case EmptyType:
		return false
	case Basic:
		return value.Kind(Kind(tt)) == v.Kind()
	case *Record:
		rv, ok := v.(*value.Record)
		if !ok {
			return false
		}
		// Every value field must be allowed and well-typed; every
		// mandatory type field must be present. Both field lists are
		// sorted by key, so merge them.
		vf := rv.Fields()
		tf := tt.fields
		i, j := 0, 0
		for i < len(vf) && j < len(tf) {
			switch {
			case vf[i].Key == tf[j].Key:
				if !Member(vf[i].Value, tf[j].Type) {
					return false
				}
				i++
				j++
			case vf[i].Key < tf[j].Key:
				return false // value has a key the type does not mention
			default:
				if !tf[j].Optional {
					return false // mandatory field absent
				}
				j++
			}
		}
		if i < len(vf) {
			return false // leftover value keys not mentioned by the type
		}
		for ; j < len(tf); j++ {
			if !tf[j].Optional {
				return false
			}
		}
		return true
	case *Map:
		rv, ok := v.(*value.Record)
		if !ok {
			return false
		}
		for _, f := range rv.Fields() {
			if !Member(f.Value, tt.elem) {
				return false
			}
		}
		return true
	case *Variants:
		rv, ok := v.(*value.Record)
		if !ok {
			return false
		}
		if tt.collapsed {
			return Member(v, tt.other)
		}
		// Route the record by its discriminator: a matching tag admits
		// through that case. Other is a catch-all — values the routing
		// misses (or whose routed case rejects them) still belong when
		// Other admits them. The catch-all semantics is what lets fusion
		// absorb arbitrary plain records into Other soundly, keeping the
		// merge algebra order-independent (docs/UNIONS.md).
		if tt.wrapper {
			if fs := rv.Fields(); len(fs) == 1 {
				if _, isRec := fs[0].Value.(*value.Record); isRec {
					if c, ok := tt.Get(fs[0].Key); ok && Member(v, c.Type) {
						return true
					}
				}
			}
		} else if fv := rv.Get(tt.key); fv != nil {
			if s, isStr := fv.(value.Str); isStr {
				if c, ok := tt.Get(string(s)); ok && Member(v, c.Type) {
					return true
				}
			}
		}
		return tt.other != nil && Member(v, tt.other)
	case *Tuple:
		av, ok := v.(value.Array)
		if !ok || len(av) != len(tt.elems) {
			return false
		}
		for i, e := range av {
			if !Member(e, tt.elems[i]) {
				return false
			}
		}
		return true
	case *Repeated:
		av, ok := v.(value.Array)
		if !ok {
			return false
		}
		for _, e := range av {
			if !Member(e, tt.elem) {
				return false
			}
		}
		return true
	case *Union:
		for _, a := range tt.alts {
			if Member(v, a) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("types: unknown type %T", t))
	}
}

// A Matcher is Member over tokens: it decides whether the next JSON
// value a lexer reads belongs to ⟦t⟧ without building the value, and
// computes the size and the structural hash (Hash) the value's inferred
// type would have (infer.Infer's Size: a scalar is 1, an object 1 plus 1
// and the child's size per member, an array 1 plus its elements'
// sizes). Member is its oracle.
//
// It decides every type in the paper's normal form — basic, record,
// tuple, [T*] and a union with at most one alternative per kind, which
// the first token of the value picks. It admits no value of a type it
// cannot decide in one pass: a map (a repeated key would need a key
// set to catch), variants, or a union with two alternatives of one
// kind. Its false is therefore always safe for a caller that reads the
// value again, and its true always means Member holds.
//
// The zero value is ready to use; one Matcher reuses its scratch
// across calls. It is not safe for concurrent use.
type Matcher struct {
	// seen is a stack of bitsets, one per open object, marking the
	// fields already matched so a repeated key is caught.
	seen []uint64
	// words is a stack of field-hash slots, one run of len(fields) per
	// open object: the slot of a matched field holds the word its member
	// contributes to the object's hash, read back in key order at '}'.
	words []uint64
	// sizeOnly skips the hash for MatchSize.
	sizeOnly bool
}

// Match reads exactly one value from lex, in either string mode, and
// reports whether it belongs to t and, if so, the size and hash of its
// inferred type. A repeated key, a syntax or read error, or
// anything t does not admit makes the value a non-member; Match then
// returns false as soon as it knows, leaving lex inside the value, and
// the caller rewinds it (jsontext.Lexer.Pin) to read the value again.
func (m *Matcher) Match(lex *jsontext.Lexer, t Type) (size int, hash uint64, ok bool) {
	m.sizeOnly = false
	return m.match(lex, t)
}

// MatchSize is Match without the hash: the same verdict and size, for
// a caller that tallies sizes alone, at the cost of the walk.
func (m *Matcher) MatchSize(lex *jsontext.Lexer, t Type) (size int, ok bool) {
	m.sizeOnly = true
	size, _, ok = m.match(lex, t)
	return size, ok
}

func (m *Matcher) match(lex *jsontext.Lexer, t Type) (size int, hash uint64, ok bool) {
	if t == Type(Empty) {
		return 0, 0, false
	}
	kind, err := lex.NextKind()
	if err != nil {
		return 0, 0, false
	}
	return m.value(lex, kind, t)
}

// basicHash holds Hash of each basic type, indexed by the type.
var basicHash = [...]uint64{Null: Hash(Null), Bool: Hash(Bool), Num: Hash(Num), Str: Hash(Str)}

// value matches the value whose first token, of kind k, NextKind has
// read against t.
func (m *Matcher) value(lex *jsontext.Lexer, k jsontext.TokenKind, t Type) (int, uint64, bool) {
	if u, ok := t.(*Union); ok {
		if t = u.altOfToken(k); t == nil {
			return 0, 0, false
		}
	}
	switch k {
	case jsontext.TokNull:
		return 1, basicHash[Null], t == Type(Null)
	case jsontext.TokTrue, jsontext.TokFalse:
		return 1, basicHash[Bool], t == Type(Bool)
	case jsontext.TokNum:
		return 1, basicHash[Num], t == Type(Num)
	case jsontext.TokStr:
		return 1, basicHash[Str], t == Type(Str)
	case jsontext.TokBeginObject:
		if r, ok := t.(*Record); ok {
			return m.record(lex, r)
		}
	case jsontext.TokBeginArray:
		switch tt := t.(type) {
		case *Repeated:
			return m.array(lex, tt.elem, nil)
		case *Tuple:
			return m.array(lex, nil, tt.elems)
		}
	}
	return 0, 0, false
}

// altOfToken returns the alternative of u whose kind a value starting
// with a token of kind k has, or nil when there is none, or more than
// one (a union outside normal form).
func (u *Union) altOfToken(k jsontext.TokenKind) Type {
	var want Kind
	switch k {
	case jsontext.TokNull:
		want = KindNull
	case jsontext.TokTrue, jsontext.TokFalse:
		want = KindBool
	case jsontext.TokNum:
		want = KindNum
	case jsontext.TokStr:
		want = KindStr
	case jsontext.TokBeginObject:
		want = KindRecord
	case jsontext.TokBeginArray:
		want = KindArray
	default:
		return nil
	}
	var alt Type
	for _, a := range u.alts {
		if ak, _ := KindOf(a); ak == want {
			if alt != nil {
				return nil
			}
			alt = a
		}
	}
	return alt
}

// record matches the members of an object whose '{' has been read.
func (m *Matcher) record(lex *jsontext.Lexer, r *Record) (int, uint64, bool) {
	fs := r.fields
	base, wbase := len(m.seen), len(m.words)
	for w := 0; w < (len(fs)+63)/64; w++ {
		m.seen = append(m.seen, 0)
	}
	if !m.sizeOnly {
		m.words = slices.Grow(m.words, len(fs))[:wbase+len(fs)]
	}
	defer func() { m.seen, m.words = m.seen[:base], m.words[:wbase] }()
	size, mandatory, next := 1, 0, 0
	for n := 0; ; n++ {
		key, _, more, err := lex.NextKey(n > 0)
		if err != nil {
			return 0, 0, false
		}
		if !more {
			break
		}
		i := fieldIndex(fs, key, next)
		if i < 0 {
			return 0, 0, false // a key the type does not mention
		}
		w, bit := base+i/64, uint64(1)<<(i%64)
		if m.seen[w]&bit != 0 {
			return 0, 0, false // a repeated key: malformed
		}
		m.seen[w] |= bit
		if !fs[i].Optional {
			mandatory++
		}
		next = i + 1
		k, err := lex.NextKind()
		if err != nil {
			return 0, 0, false
		}
		cs, ch, ok := m.value(lex, k, fs[i].Type)
		if !ok {
			return 0, 0, false
		}
		size += 1 + cs
		if !m.sizeOnly {
			// The inferred type's fields are mandatory.
			m.words[wbase+i] = fieldHash(fs[i].Key, false, ch)
		}
	}
	for _, f := range fs {
		if !f.Optional {
			mandatory--
		}
	}
	if mandatory != 0 {
		return 0, 0, false // a mandatory field is missing
	}
	if m.sizeOnly {
		return size, 0, true
	}
	// Combine the members' words in key order, the order of fs, framed
	// as hashType frames a record.
	h := hashByte(fnvOffset, 0x03)
	for w, bs := range m.seen[base:] {
		for ; bs != 0; bs &= bs - 1 {
			h = hashWord(h, m.words[wbase+w*64+bits.TrailingZeros64(bs)])
		}
	}
	return size, hashByte(h, 0x04), true
}

// fieldIndex returns the index of the field keyed key in fs, or -1.
// Objects mostly list their keys in the type's (sorted) order, so the
// field after the previous match, at hint, is tried first.
func fieldIndex(fs []Field, key []byte, hint int) int {
	if hint < len(fs) && fs[hint].Key == string(key) {
		return hint
	}
	lo, hi := 0, len(fs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if fs[mid].Key < string(key) {
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

// array matches the elements of an array whose '[' has been read:
// against elem for [T*], or position by position against elems for a
// tuple (elem nil). The inferred type of an array is a tuple.
func (m *Matcher) array(lex *jsontext.Lexer, elem Type, elems []Type) (int, uint64, bool) {
	size := 1
	h := hashByte(fnvOffset, 0x06) // framed as hashType frames a tuple
	for i := 0; ; i++ {
		more, err := lex.NextElem(i)
		if err != nil {
			return 0, 0, false
		}
		if !more {
			return size, hashByte(h, 0x07), elem != nil || i == len(elems)
		}
		et := elem
		if et == nil {
			if i == len(elems) {
				return 0, 0, false // longer than the tuple
			}
			et = elems[i]
		}
		k, err := lex.NextKind()
		if err != nil {
			return 0, 0, false
		}
		n, ch, ok := m.value(lex, k, et)
		if !ok {
			return 0, 0, false
		}
		size += n
		if !m.sizeOnly {
			h = hashWord(h, ch)
		}
	}
}
