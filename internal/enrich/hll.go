package enrich

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// hll is a HyperLogLog sketch of the distinct scalar values at a path
// (Flajolet et al. 2007): 2^hllPrecision one-byte registers, each
// keeping the maximum leading-zero rank seen for its bucket.
// Register-wise max is commutative, associative AND idempotent, so the
// sketch is immune even to duplicated observations — stronger than the
// engine's exactly-once combine guarantee requires (docs/ENRICHMENT.md).
// The all-zero sketch is the identity.
type hll struct {
	reg [1 << hllPrecision]byte
}

func newHLL() Monoid { return &hll{} }

// wireHLL is the state's wire form. P and Invalid are read only to
// reject a state at another geometry or in the invalid state that
// builds with configurable geometry wrote.
type wireHLL struct {
	P       int    `json:"p,omitempty"`
	Regs    string `json:"regs,omitempty"`
	Invalid bool   `json:"invalid,omitempty"`
}

func unmarshalHLL(data []byte) (Monoid, error) {
	var w wireHLL
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	if w.Invalid || w.P != hllPrecision {
		return nil, fmt.Errorf("enrich: hll state p=%d invalid=%t, want p=%d", w.P, w.Invalid, hllPrecision)
	}
	reg, err := base64.StdEncoding.DecodeString(w.Regs)
	if err != nil {
		return nil, fmt.Errorf("enrich: hll registers: %w", err)
	}
	h := &hll{}
	if len(reg) != len(h.reg) {
		return nil, fmt.Errorf("enrich: hll has %d registers, want %d", len(reg), len(h.reg))
	}
	copy(h.reg[:], reg)
	return h, nil
}

func (h *hll) observe(hash uint64) {
	idx := hash >> (64 - hllPrecision)
	// Rank of the remaining bits: leading zeros + 1, with a sentinel
	// bit so the all-zero remainder stays in range.
	rank := byte(bits.LeadingZeros64(hash<<hllPrecision|1<<(hllPrecision-1)) + 1)
	if rank > h.reg[idx] {
		h.reg[idx] = rank
	}
}

func (h *hll) Null()         { h.observe(hashNull()) }
func (h *hll) Bool(b bool)   { h.observe(hashBool(b)) }
func (h *hll) Num(f float64) { h.observe(hashNum(f)) }
func (h *hll) Str(s string)  { h.observe(hashStr(s)) }
func (h *hll) Object()       {}
func (h *hll) ArrayLen(int)  {}

func (h *hll) Empty() bool { return *h == hll{} }

func (h *hll) Clone() Monoid {
	c := *h
	return &c
}

func (h *hll) Merge(other Monoid) {
	for i, r := range other.(*hll).reg {
		if r > h.reg[i] {
			h.reg[i] = r
		}
	}
}

// estimate is the standard HLL estimator with the small-range
// (linear-counting) correction. It is a pure function of the
// registers, so merge-tree invariance of the registers carries over.
func (h *hll) estimate() int64 {
	m := float64(len(h.reg))
	var sum float64
	zeros := 0
	for _, r := range h.reg {
		sum += 1 / float64(uint64(1)<<r)
		if r == 0 {
			zeros++
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return int64(math.Round(est))
}

func (h *hll) Fold() map[string]any {
	if h.Empty() {
		return nil
	}
	return map[string]any{"x-distinctValues": h.estimate()}
}

func (h *hll) MarshalState() ([]byte, error) {
	return json.Marshal(wireHLL{P: hllPrecision, Regs: base64.StdEncoding.EncodeToString(h.reg[:])})
}
