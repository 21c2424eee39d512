package enrich

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// hll is a HyperLogLog sketch of the distinct scalar values at a path
// (Flajolet et al. 2007): 2^p one-byte registers, each keeping the
// maximum leading-zero rank seen for its bucket. Register-wise max is
// commutative, associative AND idempotent, so the sketch is immune
// even to duplicated observations — stronger than the engine's
// exactly-once combine guarantee requires (docs/ENRICHMENT.md).
//
// Sketches built with different precisions cannot be combined
// register-wise; merging two non-empty sketches of different p yields
// the absorbing invalid state (annotations vanish rather than lie),
// which keeps Merge total, commutative and associative. The empty
// sketch is an identity regardless of its p.
type hll struct {
	p       int
	reg     []byte
	invalid bool
}

// newHLL builds the empty sketch; p is within the bounds ParseSetParams
// enforces.
func newHLL(p Params) Monoid {
	return &hll{p: p.HLLPrecision, reg: make([]byte, 1<<p.HLLPrecision)}
}

type wireHLL struct {
	P       int    `json:"p,omitempty"`
	Regs    string `json:"regs,omitempty"`
	Invalid bool   `json:"invalid,omitempty"`
}

func unmarshalHLL(data []byte, p Params) (Monoid, error) {
	var w wireHLL
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	if w.Invalid {
		return &hll{invalid: true}, nil
	}
	if w.P < 4 || w.P > 16 {
		return nil, fmt.Errorf("enrich: hll precision %d out of range", w.P)
	}
	reg, err := base64.StdEncoding.DecodeString(w.Regs)
	if err != nil {
		return nil, fmt.Errorf("enrich: hll registers: %w", err)
	}
	if len(reg) != 1<<w.P {
		return nil, fmt.Errorf("enrich: hll has %d registers, want %d", len(reg), 1<<w.P)
	}
	return &hll{p: w.P, reg: reg}, nil
}

func (h *hll) observe(hash uint64) {
	if h.invalid {
		return
	}
	idx := hash >> (64 - h.p)
	// Rank of the remaining bits: leading zeros + 1, with a sentinel
	// bit so the all-zero remainder stays in range.
	rank := byte(bits.LeadingZeros64(hash<<h.p|1<<(h.p-1)) + 1)
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

func (h *hll) zero() bool {
	for _, r := range h.reg {
		if r != 0 {
			return false
		}
	}
	return true
}

func (h *hll) Empty() bool { return !h.invalid && h.zero() }

func (h *hll) Clone() Monoid {
	c := &hll{p: h.p, invalid: h.invalid}
	c.reg = append([]byte(nil), h.reg...)
	return c
}

func (h *hll) Merge(other Monoid) {
	o := other.(*hll)
	switch {
	case o.invalid:
		h.invalid = true
		h.reg = nil
	case h.invalid || o.zero():
		// Absorbing state, or merging in an identity: nothing to do.
	case h.zero():
		h.p = o.p
		h.reg = append(h.reg[:0], o.reg...)
	case h.p != o.p:
		h.invalid = true
		h.reg = nil
	default:
		for i, r := range o.reg {
			if r > h.reg[i] {
				h.reg[i] = r
			}
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
	var alpha float64
	switch len(h.reg) {
	case 16:
		alpha = 0.673
	case 32:
		alpha = 0.697
	case 64:
		alpha = 0.709
	default:
		alpha = 0.7213 / (1 + 1.079/m)
	}
	est := alpha * m * m / sum
	if est <= 2.5*m && zeros > 0 {
		est = m * math.Log(m/float64(zeros))
	}
	return int64(math.Round(est))
}

func (h *hll) Fold() map[string]any {
	if h.invalid || h.zero() {
		return nil
	}
	return map[string]any{"x-distinctValues": h.estimate()}
}

func (h *hll) MarshalState() ([]byte, error) {
	if h.invalid {
		return json.Marshal(wireHLL{Invalid: true})
	}
	return json.Marshal(wireHLL{P: h.p, Regs: base64.StdEncoding.EncodeToString(h.reg)})
}
