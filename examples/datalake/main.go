// Datalake: the partition-at-a-time strategy of Section 6.2 (Table 8).
// A partitioned NYTimes-style data lake is inferred one partition at a
// time; per-partition schemas are kept in a schema repository and fused
// into the global schema at negligible cost. When one partition is
// updated, only that partition is re-inferred — the rest of the lake is
// untouched — and the refreshed global schema equals a full re-run.
//
//	go run ./examples/datalake
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	jsi "repro"
	"repro/internal/dataset"
)

func main() {
	dir, err := os.MkdirTemp("", "datalake")
	if err != nil {
		log.Fatal(err)
	}
	//lint:ignore droppederr best-effort cleanup of a temporary directory
	defer os.RemoveAll(dir)

	// Lay out four partitions, like the four HDFS partitions of Table 8.
	gen, err := dataset.New("nytimes")
	if err != nil {
		log.Fatal(err)
	}
	const parts = 4
	const perPart = 300
	var paths []string
	all := dataset.NDJSON(gen, parts*perPart, 8)
	chunks := splitLines(all, parts)
	for i, chunk := range chunks {
		path := filepath.Join(dir, fmt.Sprintf("partition-%d.ndjson", i+1))
		if err := os.WriteFile(path, chunk, 0o600); err != nil {
			log.Fatal(err)
		}
		paths = append(paths, path)
	}

	// Pass 1: infer each partition in isolation, store its schema.
	repo := jsi.NewRepository()
	fmt.Println("partition        records   schema-size   time")
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		schema, stats, err := jsi.InferNDJSON(data, jsi.Options{})
		if err != nil {
			log.Fatal(err)
		}
		raw, err := schema.MarshalJSON()
		if err != nil {
			log.Fatal(err)
		}
		stored, err := jsi.UnmarshalSchemaJSON(raw) // schemas persist losslessly
		if err != nil || !stored.Equal(schema) {
			log.Fatal("schema persistence round trip failed")
		}
		repo.Append(fmt.Sprintf("partition-%d", i+1), schema, stats.Records)
		fmt.Printf("partition-%d      %7d   %11d   %s\n", i+1, stats.Records, schema.Size(), time.Since(t0).Round(time.Millisecond))
	}

	// The global schema: a fast fold of four small schemas.
	t0 := time.Now()
	global := repo.Schema()
	fmt.Printf("\nglobal schema: %d nodes, fused in %s\n", global.Size(), time.Since(t0).Round(time.Microsecond))

	// An update lands in partition 2: re-infer just that partition and
	// replace its schema.
	update := dataset.NDJSON(gen, 150, 99)
	if err := os.WriteFile(paths[1], update, 0o600); err != nil {
		log.Fatal(err)
	}
	data, err := os.ReadFile(paths[1])
	if err != nil {
		log.Fatal(err)
	}
	schema, stats, err := jsi.InferNDJSON(data, jsi.Options{})
	if err != nil {
		log.Fatal(err)
	}
	repo.DropPartition("partition-2")
	repo.Append("partition-2", schema, stats.Records)
	fmt.Printf("\nafter updating partition-2 (%d records re-inferred, others untouched):\n", stats.Records)
	fmt.Printf("global schema: %d nodes\n", repo.Schema().Size())

	// Cross-check against a full re-run over every file.
	full, _, err := jsi.InferFiles(paths, jsi.Options{})
	if err != nil {
		log.Fatal(err)
	}
	same := full.String() == repo.Schema().String()
	fmt.Printf("incremental refresh == full re-run: %v\n", same)
}

// splitLines cuts NDJSON into n line-aligned chunks.
func splitLines(data []byte, n int) [][]byte {
	var chunks [][]byte
	target := len(data) / n
	start := 0
	for i := 0; i < n-1; i++ {
		end := start + target
		for end < len(data) && data[end] != '\n' {
			end++
		}
		if end < len(data) {
			end++
		}
		chunks = append(chunks, data[start:end])
		start = end
	}
	return append(chunks, data[start:])
}
