package types

import "fmt"

// Hash returns a 64-bit structural hash of the type, consistent with
// Equal: equal types hash equally. The map phase counts distinct types
// per partition (Tables 2-5); hashing directly over the structure avoids
// rendering every type to a string first, which dominates the cost on
// datasets where most types repeat.
//
// A parent's hash depends on its children only through their hashes,
// which is what lets a decoder hash a value's inferred type from its
// tokens, bottom up, without building it. A tuple mixes its elements'
// hashes in order (HashOpen). A record sums one word per field
// (HashRecord): the sum is order-free, so a decoder adds each member's
// word as it reads the member, in document order, into one accumulator
// per object, and keeps no slot per field.
func Hash(t Type) uint64 {
	return hashType(fnvOffset, t)
}

// HashBasic returns Hash(b) from a table.
func HashBasic(b Basic) uint64 { return basicHash[b] }

var basicHash = [...]uint64{Null: Hash(Null), Bool: Hash(Bool), Num: Hash(Num), Str: Hash(Str)}

// HashOpen, HashMix and HashClose compute Hash of a tuple from its
// elements: open, mix each element's hash in order, close.
func HashOpen() uint64 { return hashByte(fnvOffset, 0x06) }

// HashMix mixes the hash w of the next element into h (see HashOpen).
func HashMix(h, w uint64) uint64 { return hashWord(h, w) }

// HashClose closes the hash h of a tuple (see HashOpen).
func HashClose(h uint64) uint64 { return hashByte(h, 0x07) }

// HashKey returns the key word of a field keyed key, optional or not:
// the part of the field's word (HashField) that depends on the key
// alone, which a caller that reads the same key many times computes
// once.
func HashKey(key string, optional bool) uint64 {
	h := hashString(fnvOffset, key)
	if optional {
		return hashByte(h, 0x10)
	}
	return hashByte(h, 0x11)
}

// HashField returns the word a field contributes to its record's hash
// (HashRecord): kw is the field's key word (HashKey) and child the hash
// of its type. The word is a full 64-bit mix of both, so that a sum of
// words tells fields apart as well as a chained hash would.
func HashField(kw, child uint64) uint64 { return fmix(kw ^ child) }

// HashRecord returns Hash of a record whose fields' words (HashField)
// sum to sum, in any order.
func HashRecord(sum uint64) uint64 { return hashRecord(fnvOffset, sum) }

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

// fmix is the murmur3 64-bit finalizer: a bijection in which every
// input bit flips about half of the output bits.
func fmix(w uint64) uint64 {
	w ^= w >> 33
	w *= 0xff51afd7ed558ccd
	w ^= w >> 33
	w *= 0xc4ceb9fe1a85ec53
	return w ^ w>>33
}

// hashRecord mixes a record whose fields' words sum to sum into h.
func hashRecord(h, sum uint64) uint64 {
	return hashByte(hashWord(hashByte(h, 0x03), sum), 0x04)
}

func hashType(h uint64, t Type) uint64 {
	switch tt := t.(type) {
	case EmptyType:
		return hashByte(h, 0x01)
	case Basic:
		return hashByte(hashByte(h, 0x02), byte(tt))
	case *Record:
		var sum uint64
		for _, f := range tt.fields {
			sum += HashField(HashKey(f.Key, f.Optional), Hash(f.Type))
		}
		return hashRecord(h, sum)
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
// its case held the record whose fields' words (HashField) sum to sum:
// the hash of the type a decoder promotes, computed from the words of
// its record's raw type.
func HashPromoted(v *Variants, sum uint64) uint64 {
	h := hashString(v.hashHead(fnvOffset), v.cases[0].Tag)
	return hashByte(hashRecord(h, sum), 0x0c)
}
