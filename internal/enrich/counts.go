package enrich

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strings"
)

// counts tallies the values at a path by kind — nulls, booleans (and
// how many were true), numbers, strings, objects, arrays — plus the
// byte lengths of the strings (min, max, sum) and the exact sum of the
// numbers. It is the statistic a profile renders from (profile.go): a
// field's presence is its node's total against the parent's object
// count.
//
// The numeric sum is exact. A float64 running sum is not associative:
// two merge trees over the same numbers end with different bits. Every
// finite float64 is an integer times a power of two, so the sum is kept
// as sum·2^exp with sum a big.Int, and adding a number is an integer
// addition once the exponents are aligned. exp follows the smallest
// power of two seen, so the integer stays as short as the data allows.
type counts struct {
	tally
	sum big.Int
	exp int
	// scratch holds the aligned addend; it is not part of the state.
	scratch big.Int
}

// tally is the fixed-size part of the state.
type tally struct {
	Nulls   int64 `json:"null,omitempty"`
	Bools   int64 `json:"bool,omitempty"`
	Trues   int64 `json:"true,omitempty"`
	Nums    int64 `json:"num,omitempty"`
	Strs    int64 `json:"str,omitempty"`
	Objects int64 `json:"object,omitempty"`
	Arrays  int64 `json:"array,omitempty"`
	StrMin  int64 `json:"str_min,omitempty"`
	StrMax  int64 `json:"str_max,omitempty"`
	StrSum  int64 `json:"str_sum,omitempty"`
}

type wireCounts struct {
	tally
	// NumSum is the exact sum in positional decimal, which is finite
	// for a binary fraction; empty for zero.
	NumSum string `json:"num_sum,omitempty"`
}

// maxSumText bounds a serialized sum: 2^63 numbers below 2^1024 sum to
// under 2^1087 (328 integer digits), and a binary fraction of float64s
// has at most 1074 fraction digits.
const maxSumText = 1500

func newCounts() Monoid { return &counts{} }

func unmarshalCounts(data []byte) (Monoid, error) {
	var w wireCounts
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	c := &counts{tally: w.tally}
	if w.NumSum == "" {
		return c, nil
	}
	// Positional decimals only: big.Rat would also read exponents,
	// whose cost the text's length does not bound.
	if len(w.NumSum) > maxSumText || strings.Trim(w.NumSum, "-.0123456789") != "" {
		return nil, fmt.Errorf("enrich: counts sum %.40q is not a decimal", w.NumSum)
	}
	r, ok := new(big.Rat).SetString(w.NumSum)
	if !ok {
		return nil, fmt.Errorf("enrich: counts sum %.40q is not a decimal", w.NumSum)
	}
	k := r.Denom().BitLen() - 1
	if r.Denom().TrailingZeroBits() != uint(k) {
		return nil, fmt.Errorf("enrich: counts sum %.40q is not a binary fraction", w.NumSum)
	}
	c.sum.Set(r.Num())
	c.exp = -k
	return c, nil
}

func (c *counts) Null()        { c.Nulls++ }
func (c *counts) Object()      { c.Objects++ }
func (c *counts) ArrayLen(int) { c.Arrays++ }

func (c *counts) Bool(b bool) {
	c.Bools++
	if b {
		c.Trues++
	}
}

func (c *counts) Str(s string) {
	n := int64(len(s))
	if c.Strs == 0 || n < c.StrMin {
		c.StrMin = n
	}
	if n > c.StrMax {
		c.StrMax = n
	}
	c.Strs++
	c.StrSum += n
}

// Num counts f and adds it to the exact sum. Only finite numbers have
// an exact sum, and JSON has no others: the lexer rejects literals that
// overflow a float64.
func (c *counts) Num(f float64) {
	c.Nums++
	if f == 0 || math.IsInf(f, 0) || math.IsNaN(f) {
		return
	}
	frac, e := math.Frexp(f) // f = frac·2^e with 0.5 <= |frac| < 1
	m := int64(frac * (1 << 53))
	tz := bits.TrailingZeros64(uint64(m))
	c.scratch.SetInt64(m >> tz)
	c.addScratch(e - 53 + tz)
}

// addScratch adds scratch·2^e to the sum.
func (c *counts) addScratch(e int) {
	switch {
	case c.sum.Sign() == 0:
		c.sum.Set(&c.scratch)
		c.exp = e
		return
	case e > c.exp:
		c.scratch.Lsh(&c.scratch, uint(e-c.exp))
	case e < c.exp:
		c.sum.Lsh(&c.sum, uint(c.exp-e))
		c.exp = e
	}
	c.sum.Add(&c.sum, &c.scratch)
}

// total is the number of values observed.
func (c *counts) total() int64 {
	return c.Nulls + c.Bools + c.Nums + c.Strs + c.Objects + c.Arrays
}

func (c *counts) Empty() bool { return c.total() == 0 }

func (c *counts) Clone() Monoid {
	d := &counts{tally: c.tally, exp: c.exp}
	d.sum.Set(&c.sum)
	return d
}

func (c *counts) Merge(other Monoid) {
	o := other.(*counts)
	if o.Strs > 0 {
		if c.Strs == 0 || o.StrMin < c.StrMin {
			c.StrMin = o.StrMin
		}
		if o.StrMax > c.StrMax {
			c.StrMax = o.StrMax
		}
	}
	c.Nulls += o.Nulls
	c.Bools += o.Bools
	c.Trues += o.Trues
	c.Nums += o.Nums
	c.Strs += o.Strs
	c.Objects += o.Objects
	c.Arrays += o.Arrays
	c.StrSum += o.StrSum
	if o.sum.Sign() != 0 {
		c.scratch.Set(&o.sum)
		c.addScratch(o.exp)
	}
}

// sumRat returns the exact sum.
func (c *counts) sumRat() *big.Rat {
	num := new(big.Int).Set(&c.sum)
	den := big.NewInt(1)
	if c.exp >= 0 {
		num.Lsh(num, uint(c.exp))
	} else {
		den.Lsh(den, uint(-c.exp))
	}
	return new(big.Rat).SetFrac(num, den)
}

// mean returns the numbers' mean rounded to the nearest float64.
func (c *counts) mean() float64 {
	r := c.sumRat()
	f, _ := r.Quo(r, new(big.Rat).SetInt64(c.Nums)).Float64()
	return f
}

func (c *counts) Fold() map[string]any {
	if c.Empty() {
		return nil
	}
	kinds := make(map[string]any)
	for _, k := range []struct {
		name string
		n    int64
	}{
		{"null", c.Nulls}, {"boolean", c.Bools}, {"number", c.Nums},
		{"string", c.Strs}, {"object", c.Objects}, {"array", c.Arrays},
	} {
		if k.n > 0 {
			kinds[k.name] = k.n
		}
	}
	out := map[string]any{"x-count": c.total(), "x-kindCounts": kinds}
	if c.Bools > 0 {
		out["x-trueCount"] = c.Trues
	}
	if c.Strs > 0 {
		out["x-observedMinBytes"] = c.StrMin
		out["x-observedMaxBytes"] = c.StrMax
		out["x-observedAvgBytes"] = float64(c.StrSum) / float64(c.Strs)
	}
	if c.Nums > 0 {
		out["x-observedMean"] = c.mean()
	}
	return out
}

func (c *counts) MarshalState() ([]byte, error) {
	w := wireCounts{tally: c.tally}
	if c.sum.Sign() != 0 {
		// The reduced denominator is 2^k, so k fraction digits are exact.
		r := c.sumRat()
		w.NumSum = r.FloatString(r.Denom().BitLen() - 1)
	}
	return json.Marshal(w)
}
