package enrich

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
)

// bloom is a Bloom-filter sketch of the scalar values at a path:
// bloomBits bits, bloomHashes double-hashed probes per value. Bit-wise
// OR is commutative, associative and idempotent, so like the HLL sketch
// it would survive even duplicated observations. The all-zero filter
// is the identity.
type bloom struct {
	bits [bloomBits / 8]byte
}

func newBloom() Monoid { return &bloom{} }

// wireBloom is the state's wire form. M, K and Invalid are read only
// to reject a state at another geometry or in the invalid state that
// builds with configurable geometry wrote.
type wireBloom struct {
	M       int    `json:"m,omitempty"`
	K       int    `json:"k,omitempty"`
	Bits    string `json:"bits,omitempty"`
	Invalid bool   `json:"invalid,omitempty"`
}

func unmarshalBloom(data []byte) (Monoid, error) {
	var w wireBloom
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	if w.Invalid || w.M != bloomBits || w.K != bloomHashes {
		return nil, fmt.Errorf("enrich: bloom state m=%d k=%d invalid=%t, want m=%d k=%d",
			w.M, w.K, w.Invalid, bloomBits, bloomHashes)
	}
	bits, err := base64.StdEncoding.DecodeString(w.Bits)
	if err != nil {
		return nil, fmt.Errorf("enrich: bloom bits: %w", err)
	}
	b := &bloom{}
	if len(bits) != len(b.bits) {
		return nil, fmt.Errorf("enrich: bloom has %d bytes, want %d", len(bits), len(b.bits))
	}
	copy(b.bits[:], bits)
	return b, nil
}

// probe returns the bit position of a value's i-th probe:
// Kirsch–Mitzenmacher double hashing, h1 + i*h2.
func probe(hash uint64, i int) uint64 {
	return (uint64(uint32(hash)) + uint64(i)*(hash>>32)) % bloomBits
}

func (b *bloom) observe(hash uint64) {
	for i := 0; i < bloomHashes; i++ {
		pos := probe(hash, i)
		b.bits[pos/8] |= 1 << (pos % 8)
	}
}

// contains reports whether a value's probes are all set — false means
// definitely never observed, true means probably observed.
func (b *bloom) contains(hash uint64) bool {
	for i := 0; i < bloomHashes; i++ {
		pos := probe(hash, i)
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

func (b *bloom) Empty() bool { return *b == bloom{} }

func (b *bloom) Clone() Monoid {
	c := *b
	return &c
}

func (b *bloom) Merge(other Monoid) {
	for i, v := range other.(*bloom).bits {
		b.bits[i] |= v
	}
}

func (b *bloom) Fold() map[string]any {
	if b.Empty() {
		return nil
	}
	return map[string]any{"x-bloomFilter": map[string]any{
		"m":    bloomBits,
		"k":    bloomHashes,
		"bits": base64.StdEncoding.EncodeToString(b.bits[:]),
	}}
}

func (b *bloom) MarshalState() ([]byte, error) {
	return json.Marshal(wireBloom{M: bloomBits, K: bloomHashes, Bits: base64.StdEncoding.EncodeToString(b.bits[:])})
}
