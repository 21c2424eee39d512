package types

import "fmt"

// Hash returns a 64-bit structural hash of the type, consistent with
// Equal: equal types hash equally. The map phase counts distinct types
// per partition (Tables 2-5); hashing directly over the structure avoids
// rendering every type to a string first, which dominates the cost on
// datasets where most types repeat.
//
// A record field's hash and a tuple element's hash are each computed on
// their own and mixed into their parent as one 64-bit word, so a
// parent's hash depends on its children only through their hashes. That
// is what lets a decoder hash a value's inferred type from its tokens,
// bottom up, without building it (HashOpen): it hashes an object's
// members in document order and combines them in key order at the
// closing brace.
func Hash(t Type) uint64 {
	return hashType(fnvOffset, t)
}

// HashBasic returns Hash(b) from a table.
func HashBasic(b Basic) uint64 { return basicHash[b] }

var basicHash = [...]uint64{Null: Hash(Null), Bool: Hash(Bool), Num: Hash(Num), Str: Hash(Str)}

// HashOpen, HashMix and HashClose compute Hash of a record (k is
// KindRecord) or a tuple (KindArray) from its children: open, mix one
// word per child, close. A tuple's word is its element's hash, mixed in
// order; a record's is HashField of its field, mixed in key order.
func HashOpen(k Kind) uint64 {
	if k == KindRecord {
		return hashByte(fnvOffset, 0x03)
	}
	return hashByte(fnvOffset, 0x06)
}

// HashMix mixes the word w of the next child into h (see HashOpen).
func HashMix(h, w uint64) uint64 { return hashWord(h, w) }

// HashClose closes the hash h of a record or a tuple (see HashOpen).
func HashClose(k Kind, h uint64) uint64 {
	if k == KindRecord {
		return hashByte(h, 0x04)
	}
	return hashByte(h, 0x07)
}

// HashField returns the word a mandatory field keyed key, whose type
// hashes to child, contributes to its record's hash (see HashOpen).
func HashField(key string, child uint64) uint64 { return fieldHash(key, false, child) }

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func hashByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

// hashString mixes s into h eight bytes at a time, then byte by byte.
func hashString(h uint64, s string) uint64 {
	for ; len(s) >= 8; s = s[8:] {
		h = hashWord(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	// Terminate so "ab"+"c" and "a"+"bc" differ.
	return hashByte(h, 0xff)
}

// hashWord mixes the child hash w into h as one word. The murmur3
// finalizer first spreads every bit of w over all 64, which the
// multiply alone would only carry upwards.
func hashWord(h, w uint64) uint64 {
	w ^= w >> 33
	w *= 0xff51afd7ed558ccd
	w ^= w >> 33
	return (h ^ w) * fnvPrime
}

// fieldHash is the word a record field keyed key, whose type hashes to
// child, contributes to its record's hash.
func fieldHash(key string, optional bool, child uint64) uint64 {
	h := hashString(fnvOffset, key)
	if optional {
		h = hashByte(h, 0x10)
	} else {
		h = hashByte(h, 0x11)
	}
	return hashWord(h, child)
}

func hashType(h uint64, t Type) uint64 {
	switch tt := t.(type) {
	case EmptyType:
		return hashByte(h, 0x01)
	case Basic:
		return hashByte(hashByte(h, 0x02), byte(tt))
	case *Record:
		h = hashByte(h, 0x03)
		for _, f := range tt.fields {
			h = hashWord(h, fieldHash(f.Key, f.Optional, Hash(f.Type)))
		}
		return hashByte(h, 0x04)
	case *Map:
		return hashType(hashByte(h, 0x05), tt.elem)
	case *Variants:
		h = tt.hashHead(h)
		for _, c := range tt.cases {
			h = hashString(h, c.Tag)
			h = hashType(h, c.Type)
		}
		if tt.other != nil {
			h = hashType(hashByte(h, 0x15), tt.other)
		}
		return hashByte(h, 0x0c)
	case *Tuple:
		h = hashByte(h, 0x06)
		for _, e := range tt.elems {
			h = hashWord(h, Hash(e))
		}
		return hashByte(h, 0x07)
	case *Repeated:
		return hashType(hashByte(h, 0x08), tt.elem)
	case *Union:
		h = hashByte(h, 0x09)
		for _, a := range tt.alts {
			h = hashType(h, a)
		}
		return hashByte(h, 0x0a)
	default:
		panic(fmt.Sprintf("types: unknown type %T", t))
	}
}

// hashHead mixes the variants' node and mode into h.
func (v *Variants) hashHead(h uint64) uint64 {
	h = hashByte(h, 0x0b)
	switch {
	case v.collapsed:
		return hashByte(h, 0x12)
	case v.wrapper:
		return hashByte(h, 0x13)
	default:
		return hashString(hashByte(h, 0x14), v.key)
	}
}

// HashPromoted returns Hash of v, a single-case variants type, as if
// its case held the record whose fields' words (HashField), in key
// order, are words: the hash of the type a decoder promotes, computed
// from the words of its record's raw type.
func HashPromoted(v *Variants, words []uint64) uint64 {
	h := hashString(v.hashHead(fnvOffset), v.cases[0].Tag)
	h = hashByte(h, 0x03)
	for _, w := range words {
		h = hashWord(h, w)
	}
	return hashByte(hashByte(h, 0x04), 0x0c)
}
