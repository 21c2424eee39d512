package jsoninference_test

// Golden pin for the statistics-annotated profile: sha256 digests of
// Profile.String for every generator, plus the full text for a small
// edge dataset that reaches the renderer's corners. Any change to how
// profiles are computed or rendered that moves a single byte fails
// here.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
)

// profileGoldenDigests are the sha256 digests of Profile.String over
// 200 records of each generator at seed 17.
var profileGoldenDigests = map[string]string{
	"github":   "d9059f2b110489eb0f2e8f9bce965d61a5bf03aa9ca593aa985d4b1da3d809d5",
	"twitter":  "56e8fcce6b3b25ec6d3db748772bdfa9d837d07869619adbe2793ace73b5f754",
	"wikidata": "380fdefa52fd533cdc6a3efd80af77574776a28ba40e55ada03159d18a0c2379",
	"nytimes":  "a3577931214b522a2d9d4b1e8da273b5d1c769133ba93841e85451312a3dc00c",
	"eventlog": "ffe93a4021f78383eb0a1c82ba201e4a8ad1bc548f64808e5606c2cf362702ef",
	"mixed":    "c5c4420af27471e61046cbd00241b09d6528917b8ade920045c423352984397e",
	"webhook":  "b0364d9f2c29c7e47abdb881c3d1bff688c303b4cf0f5eb10aedc60eb657eacb",
}

// profileEdgeData mixes kinds at one path (so the ⟨n%⟩ shares show),
// leaves fields optional, nests empty records and arrays, puts
// non-records at the top level, and carries strings with escapes and
// non-ASCII bytes (their lengths are in bytes), booleans and nulls. It
// holds no -0: which of 0 and -0 a minimum keeps is order-dependent.
const profileEdgeData = `{"id":1,"v":1.5,"s":"a\"b\\c","u":"héllo wörld","t":true,"n":null,"o":{},"a":[],"aa":[[1,2],[]],"m":0.1,"k\"ey":1}
{"id":2,"v":"two","s":"é\n","t":false,"n":null,"o":{"k":1},"a":[1,"x",null],"aa":[[]],"m":"x","ключ":"значение"}
{"id":3,"v":null,"t":true,"o":{"k":2,"j":[true,false,true]},"a":[{}],"aa":[],"m":[0.2,{"deep":[[]]}]}
{"id":4,"v":-7,"t":true,"o":{"j":[]},"a":[[],[1]],"m":0.2}
42
"top"
[1,{"x":1},"s",[]]
null
true
`

// profileEdgeGolden is Profile.String over profileEdgeData.
const profileEdgeGolden = `profile of 9 values
Null ⟨11%⟩ + Bool ⟨11%⟩ ⟨100% true⟩ + Num ⟨11%⟩ ⟨42..42, mean 42⟩ + Str ⟨11%⟩ ⟨len 3..3⟩ + { ⟨44%⟩
  "a": [ ⟨0..3 items⟩ Null ⟨17%⟩ + Num ⟨17%⟩ ⟨1..1, mean 1⟩ + Str ⟨17%⟩ ⟨len 1..1⟩ + {} ⟨17%⟩ + [ ⟨33%⟩ ⟨0..1 items⟩ Num ⟨1..1, mean 1⟩*]*]
  "aa"? ⟨75%⟩: [ ⟨0..2 items⟩ [ ⟨0..2 items⟩ Num ⟨1..2, mean 1.5⟩*]*]
  "id": Num ⟨1..4, mean 2.5⟩
  "k\"ey"? ⟨25%⟩: Num ⟨1..1, mean 1⟩
  "m": Num ⟨50%⟩ ⟨0.1..0.2, mean 0.15⟩ + Str ⟨25%⟩ ⟨len 1..1⟩ + [ ⟨25%⟩ ⟨2..2 items⟩ Num ⟨50%⟩ ⟨0.2..0.2, mean 0.2⟩ + { ⟨50%⟩
    "deep": [ ⟨1..1 items⟩ [ ⟨0..0 items⟩ ε*]*]
  }*]
  "n"? ⟨50%⟩: Null
  "o": {
    "j"? ⟨50%⟩: [ ⟨0..3 items⟩ Bool ⟨67% true⟩*]
    "k"? ⟨50%⟩: Num ⟨1..2, mean 1.5⟩
  }
  "s"? ⟨50%⟩: Str ⟨len 3..5⟩
  "t": Bool ⟨75% true⟩
  "u"? ⟨25%⟩: Str ⟨len 13..13⟩
  "v": Null ⟨25%⟩ + Num ⟨50%⟩ ⟨-7..1.5, mean -2.75⟩ + Str ⟨25%⟩ ⟨len 3..3⟩
  "ключ"? ⟨25%⟩: Str ⟨len 16..16⟩
} + [ ⟨11%⟩ ⟨4..4 items⟩ Num ⟨25%⟩ ⟨1..1, mean 1⟩ + Str ⟨25%⟩ ⟨len 1..1⟩ + { ⟨25%⟩
  "x": Num ⟨1..1, mean 1⟩
} + [ ⟨25%⟩ ⟨0..0 items⟩ ε*]*]
`

func TestProfileGolden(t *testing.T) {
	render := func(data []byte) string {
		t.Helper()
		p, _, err := jsi.InferProfile(context.Background(), jsi.FromBytes(data), jsi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return p.String()
	}
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(render(dataset.NDJSON(g, 200, 17))))
		if got := hex.EncodeToString(sum[:]); got != profileGoldenDigests[name] {
			t.Errorf("profile bytes changed; new entry:\n\t%q: %q,", name, got)
		}
	}
	if got := render([]byte(profileEdgeData)); got != profileEdgeGolden {
		t.Errorf("edge profile changed:\n got:\n%s\nwant:\n%s", got, profileEdgeGolden)
	}
	for _, empty := range []string{"", "\n \n"} {
		if got := render([]byte(empty)); got != "ε (empty profile)\n" {
			t.Errorf("profile of %q = %q, want the empty profile", empty, got)
		}
	}
}
