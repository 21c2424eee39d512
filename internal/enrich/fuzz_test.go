package enrich

import (
	"bytes"
	"testing"

	"repro/internal/value"
)

// FuzzUnmarshalLattice feeds arbitrary documents to the lattice decoder,
// the entry point for Repository snapshots, schemad restores and
// profiles. Whatever it accepts must survive every read and combine
// path without panicking, and re-encode to bytes that decode to the
// same bytes again.
func FuzzUnmarshalLattice(f *testing.F) {
	// Seeds at the fixed sketch geometry run to kilobytes; CI's
	// fuzz-smoke step caps the minimization of new-coverage inputs.
	seed := value.Obj("n", value.Num(1.5), "s", value.Arr(value.Str("x")))
	for _, names := range []string{"all", ProfileMonoids} {
		set, err := ParseSet([]string{names})
		if err != nil {
			f.Fatal(err)
		}
		l := set.NewLattice()
		observe(l, seed)
		data, err := l.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, bits := range []string{"1073741824", "9223372036854775800"} {
		f.Add([]byte(`{"monoids":["bloom"],"params":{"hll_precision":8,"bloom_bits":` + bits + `,"bloom_hashes":4}}`))
	}
	// A null child used to be dereferenced.
	f.Add([]byte(`{"monoids":["counts"],` + geometryParams + `,"root":{"fields":{"a":null}}}`))
	for _, c := range rejectedGeometries() {
		f.Add([]byte(c.doc))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := UnmarshalLattice(data)
		if err != nil {
			return
		}
		c := l.Clone()
		c.Merge(l)
		Union(l, c)
		l.Report()
		var walk func(cur Cursor)
		walk = func(cur Cursor) {
			for k := KindValue; k <= KindArray; k++ {
				cur.Annotations(k)
			}
			for key := range cur.n.fields {
				walk(cur.Field(key))
			}
			if cur.n.elem != nil {
				walk(cur.Elem())
			}
		}
		walk(l.Cursor())
		_, _ = l.RenderProfile() // a lattice without the profile monoids errors
		first, err := l.MarshalJSON()
		if err != nil {
			t.Fatalf("MarshalJSON: %v", err)
		}
		back, err := UnmarshalLattice(first)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", first, err)
		}
		again, err := back.MarshalJSON()
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("encoding is not stable:\nfirst  %s\nagain  %s", first, again)
		}
	})
}
