package jsoninference_test

// Golden byte-identity pin for the schema codec: sha256 digests of
// Schema.MarshalJSON for every generator under every policy that
// changes the stored type's shape, plus one hand-built type reaching
// every kind and every escaping rule of encoding/json. The Repository
// golden cannot catch a codec writer that forgets to escape '<':
// json.Encoder re-escapes HTML inside the snapshot's embedded schemas.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
	"repro/internal/types"
)

// codecGoldenDigests are keyed generator/policy, plus "edge".
var codecGoldenDigests = map[string]string{
	"github/default":   "9bcd41f47883a7208a65ca9beadd8934dd17e7d8a8858d8e21abd2a74581ab16",
	"github/tagged":    "2dddfe604f5938aaf628a73cfabff6920661de7ebc7e27ff845ba5045de44529",
	"github/tuples":    "9bcd41f47883a7208a65ca9beadd8934dd17e7d8a8858d8e21abd2a74581ab16",
	"twitter/default":  "414b0e5434a251a0c8e197376d08882065c8c12335b71ea8864144d1626d2578",
	"twitter/tagged":   "c2224a0b158b9669c9c7cc013c6f3d08d18661099910c483da72d11ef276eadf",
	"twitter/tuples":   "bc9335e4d1bdf5681469ce2fccef961fe692e4a1cf37f202d4e01caed7ceffe6",
	"wikidata/default": "71403fb8b2d3808a2f0cf6ac33430ce8b16b95f6efb032c6dc3efe2d3683ffa6",
	"wikidata/tagged":  "2c45e7c326c51000400e1b838763540297099b9953105d0fe07f6ef02d3dcf28",
	"wikidata/tuples":  "c497ee2324dd2908e0cc4189fd1b60a327aa866f054751e3cafac3b60dac628d",
	"nytimes/default":  "8fa51a5ddcd541fdc3c862f54c53026dd07eb24c8d828a0bc321608aee1fac68",
	"nytimes/tagged":   "a30add829fde1f8740cc978d598096d0cd45cf3a0aae5608b238b182b33d6985",
	"nytimes/tuples":   "8fa51a5ddcd541fdc3c862f54c53026dd07eb24c8d828a0bc321608aee1fac68",
	"eventlog/default": "03f4b37014912ccb0a6e942306b6296f8d48668305cd15869f5e05987a9a777f",
	"eventlog/tagged":  "daf235783f80c825f36bd8a4821937b0fb0cf94587da9c684619fb37618420fb",
	"eventlog/tuples":  "03f4b37014912ccb0a6e942306b6296f8d48668305cd15869f5e05987a9a777f",
	"mixed/default":    "8786143e0ad667bb50c6eadd9294f37758d0fd6d839057bd8ab2c432c4f8c164",
	"mixed/tagged":     "28a29294df06af7b6b227be52a46831900078fd24414404e11b6ab21e54ca160",
	"mixed/tuples":     "6ba3ff91c9a071e99b3423b5ac41dcadcffa4a4437d9c26f84a397882d19d0a0",
	"webhook/default":  "0e7279039a5ee0caa85a4b9174e35193f0e7f799358d78b6154825b24a302ca2",
	"webhook/tagged":   "9c39a07481527dfbcc45b5404f1946ccd86d1c765318ac56dd3bb04f3eb6a8de",
	"webhook/tuples":   "0e7279039a5ee0caa85a4b9174e35193f0e7f799358d78b6154825b24a302ca2",
	"edge":             "55cbef258ec64bc98d189e2e8b498dec09b417bc443814730faad3db2f54777d",
}

// codecEdgeType reaches every kind of the codec and keys that need
// escaping: HTML-unsafe bytes, U+2028 and U+2029, a control byte, a
// quote, a backslash and invalid UTF-8 (which only a hand-built type
// can carry: the lexer replaces it on the way in).
func codecEdgeType(tb testing.TB) types.Type {
	tb.Helper()
	rec := func(fs ...types.Field) *types.Record {
		r, err := types.NewRecord(fs...)
		if err != nil {
			tb.Fatal(err)
		}
		return r
	}
	tuple, err := types.NewTuple(types.Num, types.Str)
	if err != nil {
		tb.Fatal(err)
	}
	empty, err := types.NewTuple()
	if err != nil {
		tb.Fatal(err)
	}
	union, err := types.NewUnion(types.Num, types.Str)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := types.NewRepeated(union)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := types.NewMap(types.Bool)
	if err != nil {
		tb.Fatal(err)
	}
	keyed, err := types.NewVariants("type", false, []types.Variant{
		{Tag: "<a&b>", Type: rec(types.Field{Key: "type", Type: types.Str})},
		{Tag: "q\"t", Type: rec(types.Field{Key: "n", Type: types.Num, Optional: true})},
	}, rec(types.Field{Key: "id", Type: types.Num}))
	if err != nil {
		tb.Fatal(err)
	}
	wrapper, err := types.NewVariants("", true, []types.Variant{
		{Tag: "delete", Type: rec(types.Field{Key: "delete", Type: rec()})},
	}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	collapsed, err := types.NewCollapsedVariants(rec(types.Field{Key: "x", Type: types.Null, Optional: true}))
	if err != nil {
		tb.Fatal(err)
	}
	return rec(
		types.Field{Key: "<&>", Type: tuple},
		types.Field{Key: "line\u2028", Type: empty, Optional: true},
		types.Field{Key: "\u2029para sep", Type: rep},
		types.Field{Key: "ctl\x01\x1f\b\f\n\r\t", Type: m},
		types.Field{Key: "bad\xff\xfeutf8", Type: types.Empty},
		types.Field{Key: "back\\slash \"quote\"", Type: keyed},
		types.Field{Key: "ünïcødé 😀", Type: wrapper},
		types.Field{Key: "\x7f", Type: collapsed},
		types.Field{Key: "", Type: rec()},
	)
}

// TestCodecGolden checks every case against codecGoldenDigests. A
// mismatch prints the new entry in map-literal form; replace the old
// one only when the change to the codec bytes is intended.
func TestCodecGolden(t *testing.T) {
	check := func(name string, out []byte, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: MarshalJSON: %v", name, err)
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != codecGoldenDigests[name] {
			t.Errorf("codec bytes changed; new entry:\n\t%q: %q,", name, got)
		}
	}
	policies := []struct {
		name string
		opts jsi.Options
	}{
		{"default", jsi.Options{}},
		{"tagged", jsi.Options{TaggedUnions: true}},
		{"tuples", jsi.Options{PreserveTupleArrays: true}},
	}
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 200, 17)
		for _, p := range policies {
			opts := p.opts
			opts.Workers = 2
			s, _, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts)
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.MarshalJSON()
			check(name+"/"+p.name, out, err)
		}
	}
	out, err := types.MarshalJSON(codecEdgeType(t))
	check("edge", out, err)
}
