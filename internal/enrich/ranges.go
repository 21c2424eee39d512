package enrich

import "encoding/json"

// ranges tracks the observed minimum and maximum of the numbers at a
// path. Merge is min/max combination — commutative, associative,
// idempotent — guarded by the observation count so the zero state is a
// true identity.
type ranges struct {
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

func newRanges() Monoid { return &ranges{} }

func unmarshalRanges(data []byte) (Monoid, error) {
	r := &ranges{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

func (r *ranges) Null()         {}
func (r *ranges) Bool(bool)     {}
func (r *ranges) Str(string)    {}
func (r *ranges) Object()       {}
func (r *ranges) ArrayLen(int)  {}
func (r *ranges) Empty() bool   { return r.Count == 0 }
func (r *ranges) Clone() Monoid { c := *r; return &c }

func (r *ranges) Num(f float64) {
	// Normalize -0 to 0: the two compare equal, so which one a min/max
	// keeps would otherwise depend on merge order and break
	// byte-identity across merge trees.
	if f == 0 {
		f = 0
	}
	if r.Count == 0 || f < r.Min {
		r.Min = f
	}
	if r.Count == 0 || f > r.Max {
		r.Max = f
	}
	r.Count++
}

func (r *ranges) Merge(other Monoid) {
	o := other.(*ranges)
	if o.Count == 0 {
		return
	}
	if r.Count == 0 || o.Min < r.Min {
		r.Min = o.Min
	}
	if r.Count == 0 || o.Max > r.Max {
		r.Max = o.Max
	}
	r.Count += o.Count
}

func (r *ranges) Fold() map[string]any {
	if r.Count == 0 {
		return nil
	}
	return map[string]any{"minimum": r.Min, "maximum": r.Max}
}

func (r *ranges) MarshalState() ([]byte, error) { return json.Marshal(r) }
