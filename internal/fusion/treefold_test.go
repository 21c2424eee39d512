package fusion

import (
	"bytes"
	"io"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/infer"
	"repro/internal/jsontext"
	"repro/internal/types"
)

// treeFoldMaxN is the longest input stream TestTreeFoldConformance
// folds: past 2^7, so every fold of up to eight levels is exercised,
// including carries through all of them.
const treeFoldMaxN = 130

// phaseOneTypes decodes NDJSON the way the pipeline's map stage does,
// through the policy's phase-one promoter, and simplifies each type.
func phaseOneTypes(t *testing.T, data []byte, o Options) []types.Type {
	t.Helper()
	ts := decodeTypes(t, data, o)
	for i, ty := range ts {
		ts[i] = o.Simplify(ty)
	}
	return ts
}

// decodeTypes is phaseOneTypes without the simplification.
func decodeTypes(t *testing.T, data []byte, o Options) []types.Type {
	t.Helper()
	dec := infer.NewBytesDecoder(data, jsontext.Options{})
	defer dec.Release()
	if pr := o.Promoter(); pr != nil {
		dec.SetPromoter(pr)
	}
	var ts []types.Type
	for {
		ty, err := dec.Next()
		if err == io.EOF {
			return ts
		}
		if err != nil {
			t.Fatal(err)
		}
		ts = append(ts, ty)
	}
}

func codecBytes(t *testing.T, ty types.Type) []byte {
	t.Helper()
	b, err := types.MarshalJSON(ty)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTreeFoldConformance: for every prefix length n = 0..130 of types
// drawn from every dataset generator and from the package's random
// phase-one generator, under the paper, positional and tagged policies,
// the online tree fold and the policy's collapse, the halving fold an
// array's elements take, each equal the left fold byte for byte in the
// codec, and the tree fold holds at most bits.Len(n) partial types.
func TestTreeFoldConformance(t *testing.T) {
	inputs := map[string][]byte{}
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		inputs[name] = dataset.NDJSON(g, treeFoldMaxN, 23)
	}
	for _, p := range kernelPolicies {
		streams := map[string][]types.Type{}
		for name, data := range inputs {
			streams[name] = phaseOneTypes(t, data, p.o)
		}
		r := rand.New(rand.NewSource(23))
		random := make([]types.Type, treeFoldMaxN)
		for i := range random {
			random[i] = p.o.Simplify(randomPromoted(r))
		}
		streams["random"] = random

		for name, ts := range streams {
			t.Run(p.name+"/"+name, func(t *testing.T) {
				fold := NewTreeFold(p.o.Fuse)
				left := types.Type(types.Empty) // the left fold of ts[:n], one step at a time
				for n := 0; n <= len(ts); n++ {
					if n > 0 {
						fold.Add(ts[n-1])
						left = p.o.Fuse(left, ts[n-1])
					}
					live := 0
					for _, l := range fold.levels {
						if l != nil {
							live++
						}
					}
					if max := bits.Len(uint(n)); live > max {
						t.Fatalf("n=%d: %d partial types held, want at most %d", n, live, max)
					}
					want := codecBytes(t, left)
					if got := codecBytes(t, fold.Result()); !bytes.Equal(got, want) {
						t.Fatalf("n=%d: tree fold\n%s\nwant left fold\n%s", n, got, want)
					}
					if got := codecBytes(t, collapse(p.o.Fuse, ts[:n], elemType)); !bytes.Equal(got, want) {
						t.Fatalf("n=%d: collapse\n%s\nwant left fold\n%s", n, got, want)
					}
				}
			})
		}
	}
}
