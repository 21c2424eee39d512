package types_test

import (
	"bytes"
	"context"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
	"repro/internal/types"
)

// TestCodecMatchesOracleOnGenerators: every generator's schema, under
// the policies that change the stored type's shape and with keys
// abstracted into maps, encodes to the oracle's bytes, and both readers
// decode those bytes to equal types.
func TestCodecMatchesOracleOnGenerators(t *testing.T) {
	policies := []jsi.Options{{}, {TaggedUnions: true}, {PreserveTupleArrays: true}}
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 200, 17)
		for _, opts := range policies {
			opts.Workers = 2
			s, _, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*jsi.Schema{s, s.AbstractKeys(4)} {
				got, err := s.MarshalJSON()
				if err != nil {
					t.Fatal(err)
				}
				tt, err := types.UnmarshalJSON(got)
				if err != nil {
					t.Fatalf("%s: UnmarshalJSON: %v", name, err)
				}
				want, err := types.OracleMarshalJSON(tt)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s %+v: MarshalJSON differs from the oracle\n got: %s\nwant: %s", name, opts, got, want)
				}
				oracle, err := types.OracleUnmarshalJSON(got)
				if err != nil {
					t.Fatalf("%s: oracle UnmarshalJSON: %v", name, err)
				}
				if !types.Equal(tt, oracle) {
					t.Fatalf("%s %+v: UnmarshalJSON differs from the oracle", name, opts)
				}
			}
		}
	}
}
