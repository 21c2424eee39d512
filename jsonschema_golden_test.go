package jsoninference_test

// Golden byte-identity pin for the JSON Schema export: sha256 digests of
// Schema.JSONSchema for every generator under every policy that changes
// its shape, plus hand-built types for the corners the generators never
// reach. Any change to the exporter that moves a single byte fails here.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
)

// goldenEnrich names the monoids of the "enrich" rows one by one, so
// a monoid added to the catalogue moves only the "all" rows.
var goldenEnrich = []string{"ranges,hll,bloom,formats,lengths,numprec"}

// goldenPolicies are the inference policies whose JSON Schema output
// differs in shape: plain, tagged unions (oneOf with const
// discriminators), tuples (positional items), and enrichment
// annotations alone, over tagged unions, and with the whole catalogue.
var goldenPolicies = []struct {
	name string
	opts jsi.Options
}{
	{"default", jsi.Options{}},
	{"tagged", jsi.Options{TaggedUnions: true}},
	{"tuples", jsi.Options{PreserveTupleArrays: true}},
	{"enrich", jsi.Options{Enrich: goldenEnrich}},
	{"tagged+enrich", jsi.Options{TaggedUnions: true, Enrich: goldenEnrich}},
	{"all", jsi.Options{Enrich: []string{"all"}}},
}

// goldenEdgeData exercises, once enriched, annotations on empty arrays,
// nested empty arrays, formatted and HTML-unsafe strings, mixed-kind
// paths and a discriminator that not every record carries.
const goldenEdgeData = `{"type":"a","x":1.5,"tags":[],"pair":[1,"p"],"m":{"k1":1,"k2":2},"nest":[[]],"s":"2020-01-01"}
{"type":"b","y":"u","tags":["t"],"pair":[2,"q"],"m":{"k3":3},"nest":[[1,2]],"s":"x<y>& \u2028"}
{"type":"b","y":null,"tags":["t",2],"pair":[3,"r"],"m":{},"nest":[],"s":"2021-02-03"}
{"id":7,"x":3,"tags":[],"pair":[4,"s"],"e":[]}
`

// goldenTypes are hand-built types in the paper's syntax: ε, the two
// empty-array forms, the empty record, map types, collapsed variants,
// a keyed variant whose branch lacks the discriminator property, a
// wrapper union, and keys that need escaping. Their keys follow
// goldenEdgeData, so under its lattice they pick up annotations.
var goldenTypes = []string{
	`ε`,
	`[]`,
	`[ε*]`,
	`{}`,
	`{x: ε, tags: [ε*], e: [], nest: [[]*], s: Str}`,
	`{*: {v: Num, w: [Str*]}}`,
	`{m: {*: Num + Null}, tags: {*: Str}}`,
	`collapsed{*: {type: Str, x: Num?}}`,
	`{pair: collapsed{*: {a: Num}}, s: Str}`,
	`variants(type){a: {x: Num}, b: {type: Str, y: Str?}, *: {id: Num}}`,
	`variants(type){c: {type: Num + Str, s: Str}}`,
	`wrapper{delete: {delete: {id: Num}}, scrub_geo: {scrub_geo: {up_to: Num}}, *: {id: Num, x: Num}}`,
	`{"<a&b>": Num, "q\"uote": Str, "back\\slash": Null, "tab\t": Bool, "  ": Num, "ünïcødé": [Num, Str], "\u2028\u2029": Num}`,
	`Num + Str + {a: Null} + [Bool*]`,
	`{x: Num + Str, s: Str + Null, tags: [Str*] + Num, pair: [Num, Str]}`,
}

// goldenDigests are the sha256 digests of the JSON Schema bytes, keyed
// generator/policy, edge/policy, type/N and type+enrich/N (N the
// letter of the goldenTypes entry).
var goldenDigests = map[string]string{
	"github/default":         "a2ea4e937bfb1fab0cfc7f2862f8fd17c39cb32b379b021cdd6bb9dc0790e6b7",
	"github/tagged":          "16a813c03af3f8b570587aa03211345b98eb8eede51d1e44c3867e1c27b85612",
	"github/tuples":          "a2ea4e937bfb1fab0cfc7f2862f8fd17c39cb32b379b021cdd6bb9dc0790e6b7",
	"github/enrich":          "d8aa05c7a65f9a6aa11159605663399b8cef1b6ed0806ad0e7346f251e17f47d",
	"github/tagged+enrich":   "ff729ff0bc3a5b29000c05386dca51ae9949ff868b9dbf6b507c10c1e21f7fc6",
	"github/all":             "b0bee7fdfefa576e12cac63d8101b2dc73e674e2f5a86a8480e79211dd43064d",
	"twitter/default":        "e747d0b9976d34896e1c18cd34732ecd25b7f3048ef2253f35f4817584e6643b",
	"twitter/tagged":         "abc1bc453a431b787779864e11e86f8e90a18b7451a8d4160079ad71992430ab",
	"twitter/tuples":         "b35491fe8dc2cba73d759de253b9b14ce742a319c9255e27718105e543b63947",
	"twitter/enrich":         "1a57e8f788f5b4bccc2775f959c1a7f79f5cb95c61e735920007132a53c3ba02",
	"twitter/tagged+enrich":  "d1a6daa6e95170c84b71670498f46b0484755aab0e68173146243a39c433527d",
	"twitter/all":            "d95b9295650a00657bd0665dcc3209b57657646625410257693ed6113236ff87",
	"wikidata/default":       "6dccc9900258b582c9e5984e37e4e4ace721899c4667a7876ea8d4cb528d23ca",
	"wikidata/tagged":        "7399f0baf833fc2e4e02b14bf79b07ff8cd986204a3108904310f13542b2a270",
	"wikidata/tuples":        "e2e52fd91afd4fefd3f660635e4fe07c3cc0b09a3171e38787c4dbae8c07aa12",
	"wikidata/enrich":        "9fe3582869aa4c613b95e92d59bf97ac000c8a48f913b95425007191d8beeb9a",
	"wikidata/tagged+enrich": "853ee044ac337a7a51eba7aced0ec7529e6517c8e623f2dad6d8b4e64e1202eb",
	"wikidata/all":           "7177b345f7f1b1a558cedce7a740801be9dae828d8ad13ee18fb3129949cbebf",
	"nytimes/default":        "3c5243999d67bc951ab27dbba9092f283e7591ef3276031b507334d58110fb03",
	"nytimes/tagged":         "f94dc8e1612ad57467c20ef63a54e3398d936ae5ad3f1b270828d0f20e588a40",
	"nytimes/tuples":         "3c5243999d67bc951ab27dbba9092f283e7591ef3276031b507334d58110fb03",
	"nytimes/enrich":         "47033525c96e66455b633425383abf862ebbea7e6ba94f93c733fc092e5d9f06",
	"nytimes/tagged+enrich":  "f0c6f3d19557c857fd97174de5dccab3a1425ff74aba9011c2cd74b4d245df61",
	"nytimes/all":            "5e4056ff8d57fa45cbad5e9d889f40a70c0e2c1e233b52b62551e467ab9c6c87",
	"eventlog/default":       "68ef82054f775091d8289dbb4451f94abeb7e67514e0fd968e956efad9b8bc06",
	"eventlog/tagged":        "a7aba32031ebea2fe4ed13c708a8f0f671ec18ed7ed84adfbca827316b3b9627",
	"eventlog/tuples":        "68ef82054f775091d8289dbb4451f94abeb7e67514e0fd968e956efad9b8bc06",
	"eventlog/enrich":        "bcb0a6a86521548c5a775d7d563fe39582ee7e1e22c124e2621bc9d90914679b",
	"eventlog/tagged+enrich": "5c0124d419cbe5407c7664dd49b5671f89a1488922372ae2929b1dc37ce9311f",
	"eventlog/all":           "8804e4585a3a834535a4a2450786b5fbaf7beaf87d39bf8fefa18f7838554f50",
	"mixed/default":          "339fb0ec6020f22ded25073efa626dc94c78491fc5ba217b96afe1d84cbaa46a",
	"mixed/tagged":           "4a84f7142925ed6bde8d3c2851198291634889b36033d14e8f18afa667ca9c58",
	"mixed/tuples":           "d83eacbb341e6192e4fafdfcf3e17e976b8f5b66790db6130c86c15dfc641ccd",
	"mixed/enrich":           "b8e20c0676897b95b541b74e1e97b43e8f8d972f21670f0def8fed6cabf0e5ef",
	"mixed/tagged+enrich":    "dffe58eb646f83a33fc82b325ea29562f34c78b6bf84033139a7dbc92931fb2e",
	"mixed/all":              "b7f8eb868e325f031cb29a4b1e93cfe3aa635ebcaa6ac0baf173e014c443f8a2",
	"webhook/default":        "c2598f53035f01e981f504993fc8a6c1ffeeee1baaaffe7a5bc194dc57d628f1",
	"webhook/tagged":         "7f2eeddef512f14ee1d4e11ed62508608d2a0515383f6bdbf14f1b54be63fd0d",
	"webhook/tuples":         "c2598f53035f01e981f504993fc8a6c1ffeeee1baaaffe7a5bc194dc57d628f1",
	"webhook/enrich":         "b57aa5df5f2fd402bd86470e32c97412df7ba6f394c7a9e854737d4978862f3e",
	"webhook/tagged+enrich":  "87fdc4d1e247eb774d4c96b4dd2a79644a5291f394ed158bcce2ed03cf602d77",
	"webhook/all":            "3b91ae7a5915c83ea9e6867547bfa0e3da8eafc4232e02b0ad489779fac014b9",
	"edge/default":           "c2fef22c3a5398333728dc77d11e0f62aaf9159db2ed028b38890630f6d0c330",
	"edge/tagged":            "be737e577722b5400b5790707feb176f9cf6199d10da13a85ded7aa433fc47d6",
	"edge/tuples":            "d08f7ae5a7e248874c067439175f0fe695a44f72770e7d9aa1887704feb8ab7d",
	"edge/enrich":            "c19e22fecbc9f98d18bfd0716ac1184ca5c7c06600059634c7b8e3058c52426c",
	"edge/tagged+enrich":     "60362aa40852f53d8830c7a6635c40854a1040dedbeda8137222c7d8a9be63d9",
	"edge/all":               "063776d602e1d20f49352fc313bf3a7821083a8d8c3146bb931075b333e3f356",
	"edge/tuples+enrich":     "bd5e62b7a3e308dd8b849aaaf005f42c4fa39ef4a1c06a3625c6f6427c01e3d1",
	"edge/abstract+enrich":   "dce3be157212e4920e5ed537eb89b3abc4c0c71fe0950d014851b0ef079cc0c6",
	"edge/empty+enrich":      "f34ecb95e39a76ea33d60b5a5372ae6e999f5c943d09a2d02dce06ca59108c70",
	"type/a":                 "f34ecb95e39a76ea33d60b5a5372ae6e999f5c943d09a2d02dce06ca59108c70",
	"type+enrich/a":          "f34ecb95e39a76ea33d60b5a5372ae6e999f5c943d09a2d02dce06ca59108c70",
	"type/b":                 "34db0e0e4b7741d52bf4adb32ece41d7bdefd06282c5102cf0bc477ae9b8b40f",
	"type+enrich/b":          "34db0e0e4b7741d52bf4adb32ece41d7bdefd06282c5102cf0bc477ae9b8b40f",
	"type/c":                 "1c2478b62f7ec6abf1cd00912a50b5def5a2af8aff03240c88c9f730ad213029",
	"type+enrich/c":          "1c2478b62f7ec6abf1cd00912a50b5def5a2af8aff03240c88c9f730ad213029",
	"type/d":                 "c868be49ae1bf4c2838c9cd40e654ff177ca48455ffb86c5bb5dde284b9a249b",
	"type+enrich/d":          "c868be49ae1bf4c2838c9cd40e654ff177ca48455ffb86c5bb5dde284b9a249b",
	"type/e":                 "3eef4c068ba765a63b30afc421aecb1651a084b728ebf3e03f0a72a29e2cf00d",
	"type+enrich/e":          "a4c5d8d3b71aa347a5d5a2f4776b4e9fa3433bed658162f52394a1d1698269f3",
	"type/f":                 "b241a5f4b432f75124eea49486fbaa64701da261d7355b3c2fd43bad2489e644",
	"type+enrich/f":          "b241a5f4b432f75124eea49486fbaa64701da261d7355b3c2fd43bad2489e644",
	"type/g":                 "a0087cf616f29cfb2efbdce3a16550e21de9a48d955008da479536efbacabb43",
	"type+enrich/g":          "a0087cf616f29cfb2efbdce3a16550e21de9a48d955008da479536efbacabb43",
	"type/h":                 "b6805d8f98c5c137242c0c4549580d08402040253c8ec6bf3aeda4a1b4622990",
	"type+enrich/h":          "2a0ec792f81d897470e2af20e419b460a543c1be5cd9b5751522d54b2e8bdd11",
	"type/i":                 "5ce42bfced96a9d5a0b14661f00b775be6656120b23b9e3f7b97b0119295df13",
	"type+enrich/i":          "ce0ec0f9835fbd71ae3fabe917c8260a7967d537d445532da20d2cd945daaa92",
	"type/j":                 "c52e3271c816bc076e85a0b4bc1d56f5943280776189e9f1fd709e94bd9a4637",
	"type+enrich/j":          "1eacec3ec3b6f1b92f969aada6781d334501d302b45f2c22cf9ece3d9a87443c",
	"type/k":                 "c8136d6dddcf4dff11820a3154a75d3b0da008e27ae8230a52d4148b6c2a9828",
	"type+enrich/k":          "769eb33cf9522318d46633c8568b9fa409616a021f33f7551f90855a11ae81d7",
	"type/l":                 "8d1af06aeb5f52144df88a958f7241b967cce773a9c88dfb800b5734b370d40f",
	"type+enrich/l":          "1d32ace6d968b1a476e18b6c3c47dcc84d2a313b96236c86b85544db64109876",
	"type/m":                 "14fa130582fdf663b9e4ede51436d4d8184ef6b6688ea7b4ef4ffd70d7f8e796",
	"type+enrich/m":          "14fa130582fdf663b9e4ede51436d4d8184ef6b6688ea7b4ef4ffd70d7f8e796",
	"type/n":                 "9c2be50e258bb1fcc79d9976c20d9d615e12165a85b243410d597132137f610c",
	"type+enrich/n":          "9c2be50e258bb1fcc79d9976c20d9d615e12165a85b243410d597132137f610c",
	"type/o":                 "ea35519abdabe26910c923576715607c1d659ebccdb2efc680349b2d3cbf7e25",
	"type+enrich/o":          "2b83fa64dd42f744c561e710f28915c188d7f9827d78ea4957c3ed6e7512cbcb",
}

// TestJSONSchemaGolden checks every case against goldenDigests. A
// mismatch prints the new entry in map-literal form; replace the old
// one only when the change to the document is intended.
func TestJSONSchemaGolden(t *testing.T) {
	check := func(name string, s *jsi.Schema) {
		t.Helper()
		out, err := s.JSONSchema()
		if err != nil {
			t.Fatalf("%s: JSONSchema: %v", name, err)
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != goldenDigests[name] {
			t.Errorf("JSON Schema bytes changed; new entry:\n\t%q: %q,", name, got)
		}
	}
	infer := func(data []byte, opts jsi.Options) *jsi.Schema {
		t.Helper()
		opts.Workers = 2
		s, _, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		data := dataset.NDJSON(g, 200, 17)
		for _, p := range goldenPolicies {
			check(name+"/"+p.name, infer(data, p.opts))
		}
	}

	edge := []byte(goldenEdgeData)
	for _, p := range goldenPolicies {
		check("edge/"+p.name, infer(edge, p.opts))
	}
	enriched := infer(edge, jsi.Options{Enrich: goldenEnrich})
	check("edge/tuples+enrich", infer(edge, jsi.Options{PreserveTupleArrays: true, Enrich: goldenEnrich}))
	// Map types stop annotations below them; ε carries none at all.
	check("edge/abstract+enrich", jsi.WithLatticeOf(enriched.AbstractKeys(2), enriched))
	check("edge/empty+enrich", jsi.WithLatticeOf(jsi.EmptySchema(), enriched))

	for i, src := range goldenTypes {
		s, err := jsi.ParseSchema(src)
		if err != nil {
			t.Fatalf("ParseSchema(%s): %v", src, err)
		}
		check("type/"+string(rune('a'+i)), s)
		// The same type under the edge data's lattice: pinned
		// discriminators merge with the annotations of their field.
		check("type+enrich/"+string(rune('a'+i)), jsi.WithLatticeOf(s, enriched))
	}
}
