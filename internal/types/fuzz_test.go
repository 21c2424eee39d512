package types

import (
	"testing"
)

// FuzzParseTypeSyntax throws arbitrary strings at the type-expression
// parser: it must never panic, and anything it accepts must round-trip
// through the printer.
func FuzzParseTypeSyntax(f *testing.F) {
	seeds := []string{
		"Null", "Bool", "Num", "Str", "ε", "Empty",
		"{}", "[]", "[ε*]",
		"{a: Num, b: Str?}",
		"{b: (Num + Str)?}",
		"[Num, Str]", "[(Num + {E: Str})*]",
		"Num + Str + {x: Bool}",
		`{"quoted key": [Bool*]}`,
		"((Num))", "{a: {b: {c: [Null]}}}",
		"{a: Num, a: Str}", "[*]", "Num +", "{a:}", "(",
		`{"A": Num}`, "{x-y: Num?}",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tt, err := Parse(src)
		if err != nil {
			return
		}
		rendered := tt.String()
		back, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q as %q, which does not re-parse: %v", src, rendered, err)
		}
		if !Equal(tt, back) {
			t.Fatalf("round trip changed %q: %q vs %q", src, rendered, back.String())
		}
		if tt.Size() < 1 {
			t.Fatalf("parsed type %q has size %d", rendered, tt.Size())
		}
	})
}

// FuzzCodecRoundTrip checks the JSON codec on arbitrary documents: no
// panics, decoded types re-encode losslessly, and whatever the reader
// accepts the oracle (the encoding/json codec it replaced) accepts too
// and decodes to an equal type. The decoded type T is also written
// inside {a: T, b: T′, c: [T*], d: {e: T}}, T′ a near-copy of T
// (perturb), where the writer copies T's repeats: the bytes are the
// oracle's. T and that record, written together as a snapshot, where
// each repeat is a ref, read back Equal.
func FuzzCodecRoundTrip(f *testing.F) {
	for _, s := range []string{
		`{"k":"num"}`,
		`{"k":"record","fields":[{"key":"a","type":{"k":"str"},"opt":true}]}`,
		`{"k":"union","alts":[{"k":"num"},{"k":"str"}]}`,
		`{"k":"rep","elem":{"k":"empty"}}`,
		`{"k":"tuple","elems":[]}`,
		`{"k":"bogus"}`, `{}`, `[]`, `null`,
		`{"fields":[{"opt":false,"type":{"k":"null"},"key":"\u003c\ud800\u0041"}], "k":"record"}`,
		`{"k":"map","elem":{"k":"bool"}}`,
		`{"k":"variants","elem":{"k":"record"},"key":"t","cases":[{"tag":"a","type":{"k":"record"}}]}`,
		`{"k":"variants","wrapper":true,"cases":[{"tag":"d","type":{"k":"record","fields":[{"key":"d","type":{"k":"record"}}]}}]}`,
		`{"k":"variants","elem":{"k":"record"},"collapsed":true}`,
		`{"K":"num"}`, `{"k":"num"} 1`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tt, err := UnmarshalJSON(data)
		if err != nil {
			return
		}
		oracle, err := oracleUnmarshalJSON(data)
		if err != nil {
			t.Fatalf("accepted %q, which the oracle rejects: %v", data, err)
		}
		if !Equal(tt, oracle) {
			t.Fatalf("decoded %q as %s, the oracle as %s", data, tt, oracle)
		}
		enc, err := MarshalJSON(tt)
		if err != nil {
			t.Fatalf("decoded %q but cannot re-encode: %v", data, err)
		}
		back, err := UnmarshalJSON(enc)
		if err != nil || !Equal(tt, back) {
			t.Fatalf("codec round trip failed for %q -> %q: %v", data, enc, err)
		}
		copies := withCopies(tt, len(data))
		requireOracleCodec(t, copies)
		roots := []Type{tt, copies}
		got, _, _ := snapshotRoundTrip(t, roots)
		for i, root := range roots {
			if !Equal(got[i], root) {
				t.Fatalf("snapshot of %s read back as %s", root, got[i])
			}
		}
	})
}
