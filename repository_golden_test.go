package jsoninference_test

// Golden byte-identity pin for Repository snapshots: sha256 digests of
// Repository.Save for every generator, plain and enriched, with the
// records spread over three partitions. Any change to the repository
// or its wire format that moves a single snapshot byte fails here.

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

// repoGoldenDigests are keyed generator/policy.
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

// TestRepositorySaveGolden checks every case against repoGoldenDigests.
// A mismatch prints the new entry in map-literal form; replace the old
// one only when the change to the snapshot is intended.
func TestRepositorySaveGolden(t *testing.T) {
	policies := []struct {
		name string
		opts jsi.Options
	}{
		{"plain", jsi.Options{}},
		{"enriched", jsi.Options{Enrich: goldenEnrich}},
	}
	for _, name := range dataset.Names() {
		g, err := dataset.New(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(dataset.NDJSON(g, 150, 29), []byte("\n"))
		for _, p := range policies {
			repo := jsi.NewRepository()
			for part := 0; part < 3; part++ {
				var batch []byte
				for i := part; i < len(lines); i += 3 {
					batch = append(batch, lines[i]...)
				}
				opts := p.opts
				opts.Workers = 2
				s, stats, err := jsi.Infer(context.Background(), jsi.FromBytes(batch), opts)
				if err != nil {
					t.Fatal(err)
				}
				repo.Append(fmt.Sprintf("part-%d", part), s, stats.Records)
			}
			var buf bytes.Buffer
			if err := repo.Save(&buf); err != nil {
				t.Fatal(err)
			}
			key := name + "/" + p.name
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != repoGoldenDigests[key] {
				t.Errorf("Repository.Save bytes changed; new entry:\n\t%q: %q,", key, got)
			}
		}
	}
}
