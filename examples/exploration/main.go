// Exploration: the schema-driven workflows the paper's introduction
// motivates — "users can rely on schema information to quickly figure
// out structural properties", wildcard expansion for query writing,
// compile-time detection of dead paths, and projection so that
// "main-memory tools ... load only those fragments of the input dataset
// that are actually needed". Plus the Section 7 extensions: a
// statistics-annotated profile and positional array types.
//
//	go run ./examples/exploration
package main

import (
	"context"
	"fmt"
	"log"

	jsi "repro"
	"repro/internal/dataset"
)

func main() {
	gen, err := dataset.New("twitter")
	if err != nil {
		log.Fatal(err)
	}
	data := dataset.NDJSON(gen, 800, 42)
	schema, _, err := jsi.InferNDJSON(data, jsi.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// 1. Wildcard expansion: what can live under "entities"?
	fmt.Println("== $.entities.* expands to ==")
	matches, err := schema.ExpandPath("$.entities.*")
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range matches {
		miss := ""
		if m.CanMiss {
			miss = "   (may be absent)"
		}
		fmt.Printf("  %-28s : %.60s%s\n", m.Path, m.Type, miss)
	}
	fmt.Println()

	// 2. Compile-time error detection: a typo'd path is provably dead.
	fmt.Println("== dead-path detection ==")
	for _, path := range []string{"$.entities.hashtags[*].text", "$.entities.hashtag[*].text"} {
		ms, err := schema.ExpandPath(path)
		if err != nil {
			log.Fatal(err)
		}
		if len(ms) == 0 {
			fmt.Printf("  %-34s -> no conforming value can contain it (typo caught statically)\n", path)
		} else {
			fmt.Printf("  %-34s -> %s\n", path, ms[0].Type)
		}
	}
	fmt.Println()

	// 3. Projection: a query needing three paths loads a fraction of
	// each record.
	proj, err := jsi.NewProjection("$.id", "$.user.screen_name", "$.entities.hashtags[*].text")
	if err != nil {
		log.Fatal(err)
	}
	var fullBytes, projBytes int
	line := firstLine(data)
	projected, err := proj.ApplyJSON(line)
	if err != nil {
		log.Fatal(err)
	}
	fullBytes, projBytes = len(line), len(projected)
	fmt.Println("== projection ($.id, $.user.screen_name, $.entities.hashtags[*].text) ==")
	fmt.Printf("  first record: %d bytes -> %d bytes (%.0f%% kept)\n", fullBytes, projBytes, 100*float64(projBytes)/float64(fullBytes))
	fmt.Printf("  projected: %s\n\n", projected)

	// 4. Statistics-annotated profile (the Section 7 extension): how
	// often is each field present, what ranges do the numbers span?
	small := dataset.NDJSON(gen, 60, 7)
	prof, _, err := jsi.InferProfile(context.Background(), jsi.FromBytes(small), jsi.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== statistics-annotated profile (60 records, excerpt) ==")
	excerpt(prof.String(), 18)

	// 5. Positional arrays (the other Section 7 extension): coordinate
	// pairs keep their arity.
	coords := []byte(`{"bbox": [2.2, 48.8]}
{"bbox": [13.3, 52.5]}
`)
	paper, _, err := jsi.InferNDJSON(coords, jsi.Options{})
	if err != nil {
		log.Fatal(err)
	}
	pos, _, err := jsi.InferNDJSON(coords, jsi.Options{PreserveTupleArrays: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== positional array extension ==")
	fmt.Printf("  paper fusion:      %s\n", paper)
	fmt.Printf("  positional fusion: %s (rejects 3-element arrays)\n", pos)
}

func firstLine(data []byte) []byte {
	for i, b := range data {
		if b == '\n' {
			return data[:i]
		}
	}
	return data
}

func excerpt(s string, lines int) {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			n++
			if n == lines {
				fmt.Println(s[:i])
				fmt.Println("  ...")
				return
			}
		}
	}
	fmt.Println(s)
}
