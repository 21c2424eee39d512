package enrich

import "encoding/json"

// lengths tracks the element counts of the arrays at a path: count of
// arrays, min/max length, and the integer sum of lengths (divided once
// at Fold, the repo-wide discipline that keeps averages bit-identical
// across merge trees).
type lengths struct {
	Count int64 `json:"count"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	Sum   int64 `json:"sum"`
}

func newLengths() Monoid { return &lengths{} }

func unmarshalLengths(data []byte) (Monoid, error) {
	l := &lengths{}
	if err := json.Unmarshal(data, l); err != nil {
		return nil, err
	}
	return l, nil
}

func (l *lengths) Null()         {}
func (l *lengths) Bool(bool)     {}
func (l *lengths) Num(float64)   {}
func (l *lengths) Str(string)    {}
func (l *lengths) Object()       {}
func (l *lengths) Empty() bool   { return l.Count == 0 }
func (l *lengths) Clone() Monoid { c := *l; return &c }

func (l *lengths) ArrayLen(n int) {
	v := int64(n)
	if l.Count == 0 || v < l.Min {
		l.Min = v
	}
	if v > l.Max {
		l.Max = v
	}
	l.Count++
	l.Sum += v
}

func (l *lengths) Merge(other Monoid) {
	o := other.(*lengths)
	if o.Count == 0 {
		return
	}
	if l.Count == 0 || o.Min < l.Min {
		l.Min = o.Min
	}
	if o.Max > l.Max {
		l.Max = o.Max
	}
	l.Count += o.Count
	l.Sum += o.Sum
}

func (l *lengths) Fold() map[string]any {
	if l.Count == 0 {
		return nil
	}
	return map[string]any{
		"x-observedMinItems": l.Min,
		"x-observedMaxItems": l.Max,
		"x-observedAvgItems": float64(l.Sum) / float64(l.Count),
	}
}

func (l *lengths) MarshalState() ([]byte, error) { return json.Marshal(l) }
