package enrich

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
)

// numPrec tracks number-precision statistics at a path: how many of
// the observed numbers were integral versus fractional, and the
// largest number of decimal places any of them needed (measured on the
// shortest decimal rendering of the parsed float64, so "1.50" and
// "1.5" agree — the lexer normalizes literals to their value).
type numPrec struct {
	Ints   int64 `json:"ints"`
	Fracs  int64 `json:"fracs"`
	MaxDec int   `json:"max_dec"`
}

func newNumPrec() Monoid { return &numPrec{} }

func unmarshalNumPrec(data []byte) (Monoid, error) {
	n := &numPrec{}
	if err := json.Unmarshal(data, n); err != nil {
		return nil, err
	}
	return n, nil
}

func (n *numPrec) Null()        {}
func (n *numPrec) Bool(bool)    {}
func (n *numPrec) Str(string)   {}
func (n *numPrec) Object()      {}
func (n *numPrec) ArrayLen(int) {}
func (n *numPrec) Empty() bool  { return n.Ints == 0 && n.Fracs == 0 }
func (n *numPrec) Clone() Monoid {
	c := *n
	return &c
}

func (n *numPrec) Num(f float64) {
	if math.Trunc(f) == f {
		n.Ints++
		return
	}
	n.Fracs++
	if d := decimalPlaces(f); d > n.MaxDec {
		n.MaxDec = d
	}
}

func (n *numPrec) Merge(other Monoid) {
	o := other.(*numPrec)
	n.Ints += o.Ints
	n.Fracs += o.Fracs
	if o.MaxDec > n.MaxDec {
		n.MaxDec = o.MaxDec
	}
}

func (n *numPrec) Fold() map[string]any {
	total := n.Ints + n.Fracs
	if total == 0 {
		return nil
	}
	out := map[string]any{"x-integerOnly": n.Fracs == 0}
	if n.Fracs > 0 {
		out["x-maxDecimalPlaces"] = n.MaxDec
	}
	return out
}

func (n *numPrec) MarshalState() ([]byte, error) { return json.Marshal(n) }

// decimalPlaces counts the decimal digits after the point in the
// positional spelling of f's shortest round-trip representation:
// 0.25 → 2, 1e-7 → 7, 1.234e+20 → 0.
func decimalPlaces(f float64) int {
	s := strconv.FormatFloat(f, 'e', -1, 64) // d.dddde±dd
	mant := s
	exp := 0
	if i := strings.IndexByte(s, 'e'); i >= 0 {
		mant = s[:i]
		exp, _ = strconv.Atoi(s[i+1:])
	}
	frac := 0
	if i := strings.IndexByte(mant, '.'); i >= 0 {
		frac = len(mant) - i - 1
	}
	if places := frac - exp; places > 0 {
		return places
	}
	return 0
}
