package jsoninference_test

// Golden byte-identity pin for Repository snapshots: sha256 digests of
// both snapshot versions, Repository.Save's version 1 and the version 0
// oracle's, for every generator, plain and enriched, with the records
// spread over three partitions. Any change to the repository or its
// wire formats that moves a single snapshot byte fails here.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
)

// repoGoldenDigests are keyed generator/policy: the version 0 bytes.
var repoGoldenDigests = map[string]string{
	"github/plain":      "255cdcd5db50fe33fbedc8839eed10be780847887c78b6dd66d223a3dfd2f697",
	"github/enriched":   "c8c744dcef5596e7b58a55ac314ac921450071855a3f2eb3e9759e79d56b10ff",
	"twitter/plain":     "02b34c4be47cdea372767fb26df40f8ea4da7b301bcebd9c62382bbf01151867",
	"twitter/enriched":  "5a813fc3f4e210278982bedbcaf1cde931287318e8c9034419bde2e53e866b96",
	"wikidata/plain":    "743b605d31a09d03d753141d7ff3b886ac5344e0af8558bc891b52fd8fe7be58",
	"wikidata/enriched": "9dec3091dc1f10212104de81e706d9dc90a5e1aed54c452ddc195fb8a667abee",
	"nytimes/plain":     "f66f9d8aae21548ea2f7f8414b9d6d8965194f24a2eae6e74abd11a7819196f9",
	"nytimes/enriched":  "83cd51366f666db9f48330bffe7171f22b17b4eabf57727ccf0ca7fdbdd94c19",
	"eventlog/plain":    "25a4d134410a66c6f991ac06969beadd21dbfe4611b5f9a5a1f9ab6a51426808",
	"eventlog/enriched": "2299179c3bc4a8197c26610690b345ad2210deaafd4ac983a86a383baa287f22",
	"mixed/plain":       "608d8daa6f84f0b31a9f472d5fbe5fde3c72d6a36a61625f5c51c3b0f84c4349",
	"mixed/enriched":    "72a7c15d8fe8a668c387f353776f8d09ec68da0bef4aa767a0b23b2a02464b10",
	"webhook/plain":     "bac2aac78094925dd91ff423d9e429d249008d161f29790201d105d7a573a7bf",
	"webhook/enriched":  "c03f825bd1f837e0ad9a134e9bdce467367170d6ae8d8059122edbbd4dfb13c3",
}

// repoGoldenDigestsV1 are keyed generator/policy, as repoGoldenDigests.
var repoGoldenDigestsV1 = map[string]string{
	"github/plain":      "3293a2b06912a6c915896e4b7051c10b294b8f6ece74b97dcdd286b93231d580",
	"github/enriched":   "1f45e07d91736179d4953f2ac1edc26532ba0deeaf5742003cfbd58ae63a4840",
	"twitter/plain":     "0c5df94f6231c4e0434feae3d707f52745d269beb5e3a3ab98f1b1c35a896e37",
	"twitter/enriched":  "c5dc4911bb099c25770947cd83a839658e1786b056da8a61f0c1e9b23eb0cf7d",
	"wikidata/plain":    "60099abf5e743bd5e14f1faac7d2b04abeefa2305e4bb59ca56b99fdd31de12f",
	"wikidata/enriched": "4d29d9617de67be9883733b5c86aa49705eee261f48569e8f3a5fdb5483cdb39",
	"nytimes/plain":     "4b2893051129786cf37b46a1bf59ec28fc4e347da767fc2170212d7dc5e575ab",
	"nytimes/enriched":  "9cc330675ff04bf89737b1335f079572d465a98a683cfd46005e13669eea4621",
	"eventlog/plain":    "702d712b0ac69c8eeead25716538dd8d76201f266f1ed2a18ed5e99524b55dd2",
	"eventlog/enriched": "debdf53df1220ccf545a68376ed1bcaeeb30ede928cba101699a782338adf710",
	"mixed/plain":       "3c09f913ed63ad650e2a08365cea79967da8564f536fc3fd03668667927a3774",
	"mixed/enriched":    "e498ec073440a71388c17c83ac0142996731150bf1dbb8f98ecf6c9def7939f9",
	"webhook/plain":     "be7d3e959810f8f640da2dd5756585f7dec3afbde26ac9ff157fee54991786e1",
	"webhook/enriched":  "cef628d694e527bfe200e9ba4ad5b40b8994106a1c389f12e156ac1d60bb37a4",
}

// A goldenRepo is one case of TestRepositorySaveGolden.
type goldenRepo struct {
	key  string // generator/policy
	repo *jsi.Repository
}

// goldenRepos builds the cases of TestRepositorySaveGolden from n
// records of each generator at seed 29, spread round robin over three
// partitions, plain and enriched.
func goldenRepos(tb testing.TB, n int) []goldenRepo {
	tb.Helper()
	policies := []struct {
		name string
		opts jsi.Options
	}{
		{"plain", jsi.Options{Workers: 2}},
		{"enriched", jsi.Options{Workers: 2, Enrich: goldenEnrich}},
	}
	var out []goldenRepo
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			tb.Fatal(err)
		}
		lines := bytes.SplitAfter(dataset.NDJSON(g, n, 29), []byte("\n"))
		for _, p := range policies {
			repo := jsi.NewRepository()
			for part := 0; part < 3; part++ {
				var batch []byte
				for i := part; i < len(lines); i += 3 {
					batch = append(batch, lines[i]...)
				}
				s, stats, err := jsi.Infer(context.Background(), jsi.FromBytes(batch), p.opts)
				if err != nil {
					tb.Fatal(err)
				}
				repo.Append(fmt.Sprintf("part-%d", part), s, stats.Records)
			}
			out = append(out, goldenRepo{name + "/" + p.name, repo})
		}
	}
	return out
}

// saveBoth returns repo's snapshot in version 0, through the oracle,
// and in version 1, through Save.
func saveBoth(tb testing.TB, repo *jsi.Repository) (v0, v1 []byte) {
	tb.Helper()
	var b0, b1 bytes.Buffer
	if err := jsi.SaveVersion0(repo, &b0); err != nil {
		tb.Fatal(err)
	}
	if err := repo.Save(&b1); err != nil {
		tb.Fatal(err)
	}
	return b0.Bytes(), b1.Bytes()
}

// TestRepositorySaveGolden checks every case's version 0 bytes, which
// Save wrote before snapshots had a version, against repoGoldenDigests
// and Save's version 1 bytes against repoGoldenDigestsV1. A mismatch
// prints the new entry in map-literal form; replace the old one only
// when the change to the snapshot is intended.
func TestRepositorySaveGolden(t *testing.T) {
	for _, c := range goldenRepos(t, 150) {
		v0, v1 := saveBoth(t, c.repo)
		for _, v := range []struct {
			name    string
			doc     []byte
			digests map[string]string
		}{{"version 0", v0, repoGoldenDigests}, {"version 1", v1, repoGoldenDigestsV1}} {
			sum := sha256.Sum256(v.doc)
			if got := hex.EncodeToString(sum[:]); got != v.digests[c.key] {
				t.Errorf("%s snapshot bytes changed; new entry:\n\t%q: %q,", v.name, c.key, got)
			}
		}
	}
}
