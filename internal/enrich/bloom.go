package enrich

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
)

// bloom is a Bloom-filter sketch of the scalar values at a path: m
// bits, k double-hashed probes per value. Bit-wise OR is commutative,
// associative and idempotent, so like the HLL sketch it would survive
// even duplicated observations. Filters of different geometry (m, k)
// merge to the absorbing invalid state; the all-zero filter is an
// identity regardless of geometry.
type bloom struct {
	m       int // bits
	k       int // hashes
	bits    []byte
	invalid bool
}

// newBloom builds the empty filter; p is within the bounds
// ParseSetParams enforces, so the bits fill whole bytes.
func newBloom(p Params) Monoid {
	return &bloom{m: p.BloomBits, k: p.BloomHashes, bits: make([]byte, p.BloomBits/8)}
}

type wireBloom struct {
	M       int    `json:"m,omitempty"`
	K       int    `json:"k,omitempty"`
	Bits    string `json:"bits,omitempty"`
	Invalid bool   `json:"invalid,omitempty"`
}

func unmarshalBloom(data []byte, _ Params) (Monoid, error) {
	var w wireBloom
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	if w.Invalid {
		return &bloom{invalid: true}, nil
	}
	if w.M < 64 || w.M%8 != 0 || w.K < 1 || w.K > 16 {
		return nil, fmt.Errorf("enrich: bloom geometry m=%d k=%d invalid", w.M, w.K)
	}
	bits, err := base64.StdEncoding.DecodeString(w.Bits)
	if err != nil {
		return nil, fmt.Errorf("enrich: bloom bits: %w", err)
	}
	if len(bits) != w.M/8 {
		return nil, fmt.Errorf("enrich: bloom has %d bytes, want %d", len(bits), w.M/8)
	}
	return &bloom{m: w.M, k: w.K, bits: bits}, nil
}

func (b *bloom) observe(hash uint64) {
	if b.invalid {
		return
	}
	// Kirsch–Mitzenmacher double hashing: probe i uses h1 + i*h2.
	h1 := uint32(hash)
	h2 := uint32(hash >> 32)
	for i := 0; i < b.k; i++ {
		pos := (uint64(h1) + uint64(i)*uint64(h2)) % uint64(b.m)
		b.bits[pos/8] |= 1 << (pos % 8)
	}
}

// contains reports whether a value's probes are all set — false means
// definitely never observed, true means probably observed.
func (b *bloom) contains(hash uint64) bool {
	if b.invalid {
		return false
	}
	h1 := uint32(hash)
	h2 := uint32(hash >> 32)
	for i := 0; i < b.k; i++ {
		pos := (uint64(h1) + uint64(i)*uint64(h2)) % uint64(b.m)
		if b.bits[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
	}
	return true
}

func (b *bloom) Null()         { b.observe(hashNull()) }
func (b *bloom) Bool(v bool)   { b.observe(hashBool(v)) }
func (b *bloom) Num(f float64) { b.observe(hashNum(f)) }
func (b *bloom) Str(s string)  { b.observe(hashStr(s)) }
func (b *bloom) Object()       {}
func (b *bloom) ArrayLen(int)  {}

func (b *bloom) zero() bool {
	for _, v := range b.bits {
		if v != 0 {
			return false
		}
	}
	return true
}

func (b *bloom) Empty() bool { return !b.invalid && b.zero() }

func (b *bloom) Clone() Monoid {
	c := &bloom{m: b.m, k: b.k, invalid: b.invalid}
	c.bits = append([]byte(nil), b.bits...)
	return c
}

func (b *bloom) Merge(other Monoid) {
	o := other.(*bloom)
	switch {
	case o.invalid:
		b.invalid = true
		b.bits = nil
	case b.invalid || o.zero():
	case b.zero():
		b.m, b.k = o.m, o.k
		b.bits = append(b.bits[:0], o.bits...)
	case b.m != o.m || b.k != o.k:
		b.invalid = true
		b.bits = nil
	default:
		for i, v := range o.bits {
			b.bits[i] |= v
		}
	}
}

func (b *bloom) Fold() map[string]any {
	if b.invalid || b.zero() {
		return nil
	}
	return map[string]any{"x-bloomFilter": map[string]any{
		"m":    b.m,
		"k":    b.k,
		"bits": base64.StdEncoding.EncodeToString(b.bits),
	}}
}

func (b *bloom) MarshalState() ([]byte, error) {
	if b.invalid {
		return json.Marshal(wireBloom{Invalid: true})
	}
	return json.Marshal(wireBloom{M: b.m, K: b.k, Bits: base64.StdEncoding.EncodeToString(b.bits)})
}
