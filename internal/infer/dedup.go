package infer

import "repro/internal/intern"

// DedupAllWith infers the types of all top-level JSON values in data as
// a multiset over tab: one entry per distinct type with its occurrence
// count. It is InferAllWith followed by tab.Canon on each type, a leaf
// on the public decoder kept for the benchmark's dedup probe; no
// inference path interns. Value events go to obs and a tagged-union
// promoter pr applies (both may be nil).
func DedupAllWith(data []byte, tab *intern.Table, obs Observer, pr Promoter) (*intern.Multiset, error) {
	ts, err := InferAllWith(data, obs, pr)
	if err != nil {
		return nil, err
	}
	ms := intern.NewMultiset()
	for _, t := range ts {
		ref, _ := tab.Ref(tab.Canon(t))
		ms.Add(ref, 1)
	}
	return ms, nil
}
