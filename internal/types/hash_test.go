package types

import "testing"

// TestRecordHashIsOrderFree checks the record hash a decoder computes
// from a value's members in document order: on random records, Hash is
// HashRecord of the sum of the fields' words, whatever order they are
// summed in; swapping the types of two fields changes it, so the sum
// still ties each type to its key; and HashPromoted of that sum is Hash
// of the record's single-case variants, keyed and wrapper.
func TestRecordHashIsOrderFree(t *testing.T) {
	r := &typeRand{s: 0x9e3779b97f4a7c15}
	swapped := 0
	for i := 0; i < 2000; i++ {
		var fs []Field
		seen := map[string]bool{}
		for n := r.intn(6); len(fs) < n; {
			if k := r.key(); !seen[k] {
				seen[k] = true
				fs = append(fs, Field{Key: k, Type: randomType(r, 2), Optional: r.intn(2) == 0})
			}
		}
		rt := rec(fs...)
		words := make([]uint64, len(fs))
		for j, f := range fs {
			words[j] = HashField(HashKey(f.Key, f.Optional), Hash(f.Type))
		}
		var sum uint64
		for _, j := range shuffled(r, len(words)) {
			sum += words[j]
		}
		if got, want := HashRecord(sum), Hash(rt); got != want {
			t.Fatalf("%s: HashRecord of its words' sum %#x, Hash %#x", rt, got, want)
		}
		if len(fs) >= 2 {
			a, b := r.intn(len(fs)), r.intn(len(fs)-1)
			if b >= a {
				b++
			}
			if !Equal(fs[a].Type, fs[b].Type) {
				sw := append([]Field(nil), fs...)
				sw[a].Type, sw[b].Type = fs[b].Type, fs[a].Type
				if other := rec(sw...); Hash(other) == Hash(rt) {
					t.Fatalf("%s and %s, its fields %q and %q swapped, hash alike", rt, other, fs[a].Key, fs[b].Key)
				}
				swapped++
			}
		}
		keyed := MustVariants("type", false, []Variant{{Tag: "push", Type: rt}}, nil)
		wrapper := MustVariants("", true, []Variant{{Tag: "delete", Type: rt}}, nil)
		for _, v := range []*Variants{keyed, wrapper} {
			if got, want := HashPromoted(v, sum), Hash(v); got != want {
				t.Fatalf("%s: HashPromoted %#x, Hash %#x", v, got, want)
			}
		}
	}
	if swapped < 500 {
		t.Errorf("weak coverage: %d records with two fields of distinct types swapped", swapped)
	}
}

// shuffled returns a random permutation of 0..n-1.
func shuffled(r *typeRand, n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}
