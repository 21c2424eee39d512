package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fusion"
)

// testDedup builds dedup machinery with tight knobs so tiny test
// chunks exercise real sampling decisions: an 8-record sample, a 0.5
// degrade ratio, and a node-growth guard low enough that any
// all-distinct window passes it.
func testDedup() *Dedup {
	dd := NewDedup(fusion.Options{})
	dd.sample = 8
	dd.threshold = 0.5
	dd.nodeGrowth = 0.01
	return dd
}

// ndjsonFields builds one NDJSON chunk with a record per field name:
// distinct names produce distinct record types, repeats repeat them.
func ndjsonFields(names ...string) []byte {
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "{%q:1}\n", n)
	}
	return []byte(b.String())
}

// roundRobin returns n copies of the given names in round-robin order,
// so the distinct ratio of a window is len(names)/n.
func roundRobin(n int, names ...string) []string {
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, names[i%len(names)])
	}
	return out
}

// sameResult reports how two folds differ, or "" when every observable
// statistic and the fused type agree.
func sameResult(got, want Result) string {
	switch {
	case got.Fused.String() != want.Fused.String():
		return fmt.Sprintf("fused %s != %s", got.Fused, want.Fused)
	case got.Records != want.Records || got.DistinctTypes != want.DistinctTypes:
		return fmt.Sprintf("records %d/%d distinct %d/%d", got.Records, want.Records, got.DistinctTypes, want.DistinctTypes)
	case got.MinTypeSize != want.MinTypeSize || got.MaxTypeSize != want.MaxTypeSize || got.AvgTypeSize != want.AvgTypeSize:
		return fmt.Sprintf("sizes min %d/%d max %d/%d avg %v/%v", got.MinTypeSize, want.MinTypeSize,
			got.MaxTypeSize, want.MaxTypeSize, got.AvgTypeSize, want.AvgTypeSize)
	}
	return ""
}

// TestAutoThresholdBoundary pins the degrade predicate's boundary
// semantics: a sampled window whose distinct ratio lands exactly on
// the threshold degrades (the predicate is >=), one distinct type
// fewer stays on the dedup path — and either way the folded Result is
// byte-identical to the default knobs and to the plain tally over the
// same chunk.
func TestAutoThresholdBoundary(t *testing.T) {
	cases := []struct {
		label   string
		sampled []string // first 8 records: the sampled window
		want    int32
	}{
		// 4 distinct over 8 sampled records = ratio 0.5, exactly the
		// threshold: 4 >= 0.5*8 holds, so the chunk degrades.
		{"at threshold degrades", roundRobin(8, "a", "b", "c", "d"), hintDegrade},
		// 3 distinct = ratio 0.375 < 0.5: stays deduplicating.
		{"below threshold stays", roundRobin(8, "a", "b", "c"), hintDedup},
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			// Four post-sample records so a degrade leaves a real plain
			// portion behind it.
			records := append(append([]string{}, tc.sampled...), "e", "f", "g", "h")
			chunk := ndjsonFields(records...)

			env := &Env{Fusion: fusion.Options{}, Dedup: testDedup()}
			acc, err := env.mapChunk(chunk)
			if err != nil {
				t.Fatal(err)
			}
			if got := env.Dedup.hint.Load(); got != tc.want {
				t.Fatalf("hint after sampled chunk = %d, want %d", got, tc.want)
			}

			got := Fold(acc)
			for _, ref := range []struct {
				label string
				env   *Env
			}{
				{"default knobs", &Env{Fusion: fusion.Options{}, Dedup: NewDedup(fusion.Options{})}},
				{"plain", &Env{Fusion: fusion.Options{}}},
			} {
				racc, err := ref.env.mapChunk(chunk)
				if err != nil {
					t.Fatal(err)
				}
				if diff := sameResult(got, Fold(racc)); diff != "" {
					t.Errorf("vs %s: %s", ref.label, diff)
				}
			}
		})
	}
}

// TestAutoPartialWindowDegrades pins the short-chunk rule: a chunk that
// ends inside its sample window decides over what it did sample. A
// chunk of Wikidata records — ids as keys, every record type distinct
// and built of fresh nodes — shorter than the default window must
// publish a degrade, and fold exactly as the plain tally does.
func TestAutoPartialWindowDegrades(t *testing.T) {
	g, err := dataset.New("wikidata")
	if err != nil {
		t.Fatal(err)
	}
	chunk := dataset.NDJSON(g, DefaultDedupSample/2, 3)
	env := &Env{Dedup: NewDedup(fusion.Options{})}
	acc, err := env.mapChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if got := env.Dedup.hint.Load(); got != hintDegrade {
		t.Fatalf("hint after a %d-record wikidata chunk = %d, want %d (degrade)", DefaultDedupSample/2, got, hintDegrade)
	}
	plain, err := (&Env{}).mapChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameResult(Fold(acc), Fold(plain)); diff != "" {
		t.Errorf("vs plain: %s", diff)
	}
}

// TestAutoCombineBoundaryRecheck exercises the other half of the
// adaptive layer: merged multisets that reach the sample size re-test
// the predicate, and a degraded run whose plain tally turns repetitive
// is sent back to sampling.
func TestAutoCombineBoundaryRecheck(t *testing.T) {
	t.Run("merge crosses sample size", func(t *testing.T) {
		dd := testDedup()
		env := &Env{Fusion: fusion.Options{}, Dedup: dd}
		// Two 4-record chunks, all-distinct across both, mapped while
		// the hint still said sample (as on two workers at once): each
		// settles on its partial window, and the multisets stay below
		// the 8-record sample size until they merge.
		a, err := env.mapChunk(ndjsonFields("a", "b", "c", "d"))
		if err != nil {
			t.Fatal(err)
		}
		dd.hint.Store(hintSample)
		b, err := env.mapChunk(ndjsonFields("e", "f", "g", "h"))
		if err != nil {
			t.Fatal(err)
		}
		// Another chunk meanwhile settled on dedup.
		dd.hint.Store(hintDedup)
		Combine(a, b)
		if got := dd.hint.Load(); got != hintDegrade {
			t.Fatalf("hint after all-distinct merge = %d, want %d", got, hintDegrade)
		}
	})

	t.Run("repetitive merge settles on dedup", func(t *testing.T) {
		dd := testDedup()
		env := &Env{Fusion: fusion.Options{}, Dedup: dd}
		// Each 4-record window holds 2 distinct types, ratio 0.5: both
		// chunks degrade alone, but together they repeat.
		a, err := env.mapChunk(ndjsonFields(roundRobin(4, "a", "b")...))
		if err != nil {
			t.Fatal(err)
		}
		dd.hint.Store(hintSample)
		b, err := env.mapChunk(ndjsonFields(roundRobin(4, "a", "b")...))
		if err != nil {
			t.Fatal(err)
		}
		Combine(a, b)
		if got := dd.hint.Load(); got != hintDedup {
			t.Fatalf("hint after repetitive merge = %d, want %d", got, hintDedup)
		}
	})

	t.Run("repetitive degraded portion resumes sampling", func(t *testing.T) {
		dd := testDedup()
		dd.hint.Store(hintDegrade) // a settled degrade sends whole chunks down the plain tally
		env := &Env{Fusion: fusion.Options{}, Dedup: dd}
		a, err := env.mapChunk(ndjsonFields(roundRobin(4, "a", "b")...))
		if err != nil {
			t.Fatal(err)
		}
		b, err := env.mapChunk(ndjsonFields(roundRobin(4, "a", "b")...))
		if err != nil {
			t.Fatal(err)
		}
		Combine(a, b)
		if got := dd.hint.Load(); got != hintSample {
			t.Fatalf("hint after repetitive degraded merge = %d, want %d (resume sampling)", got, hintSample)
		}
	})
}

// TestAutoStreamDegrade pins that the streaming driver is degraded from
// its first record: with dedup machinery in the Env it interns nothing
// and publishes no decision, and it folds to the chunked plain tally's
// Result minus the distinct count it does not keep.
func TestAutoStreamDegrade(t *testing.T) {
	records := append(
		[]string{"a", "b", "c", "d", "e", "f", "g", "h"},
		roundRobin(12, "w", "x", "y", "z")...)
	data := ndjsonFields(records...)

	dd := testDedup()
	nodes := dd.Tab.Len()
	acc, n, err := RunStream(context.Background(), &Env{Dedup: dd}, strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Fatalf("consumed %d bytes, want %d", n, len(data))
	}
	if hits, misses := dd.Tab.Stats(); hits+misses != 0 || dd.Tab.Len() != nodes {
		t.Errorf("stream interned: %d hits, %d misses, table %d -> %d nodes", hits, misses, nodes, dd.Tab.Len())
	}
	if got := dd.hint.Load(); got != hintSample {
		t.Errorf("stream published hint %d", got)
	}

	plain, err := (&Env{}).mapChunk(data)
	if err != nil {
		t.Fatal(err)
	}
	want := Fold(plain)
	want.DistinctTypes = 0
	if diff := sameResult(Fold(acc), want); diff != "" {
		t.Errorf("vs chunked plain tally: %s", diff)
	}
}
