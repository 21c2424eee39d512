package pipeline

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/enrich"
	"repro/internal/enrich/monoidtest"
	"repro/internal/fusion"
	"repro/internal/types"
)

// monoidNDJSON mixes repeated and distinct shapes across every JSON
// kind, so the laws are exercised where fusion actually has work to do.
var monoidNDJSON = []byte(`{"a":1,"b":"x"}
{"a":2.5,"c":[1,2]}
[1,"two",true]
"s"
null
{"a":{"d":null},"b":"y"}
42
[{"k":1},{"k":2},{"k":3}]
{"a":1,"b":"x"}
{"c":[true,false],"a":7}
true
{"a":1,"b":"x"}
{"a":{"d":"deep"},"b":"y","e":[]}
[[1],[2,3]]
false`)

// monoidRecords splits the corpus into one line per record, the unit
// the random-subset generator samples.
func monoidRecords() [][]byte {
	return bytes.Split(monoidNDJSON, []byte("\n"))
}

// payload is one engine configuration under test plus the way it
// builds accumulators.
type payload struct {
	name   string
	env    *Env
	stream bool
}

func payloads(t *testing.T) []payload {
	t.Helper()
	set, err := enrich.ParseSet([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	return []payload{
		{"plain", &Env{Fusion: fusion.Options{}}, false},
		{"plain-stream", &Env{Fusion: fusion.Options{}}, true},
		{"stream-enrich", &Env{Fusion: fusion.Options{}, Enrich: set}, true},
		{"plain-tuples", &Env{Fusion: fusion.Options{Tuples: true}}, false},
		// "dedup": chunks absorb against their own fold, and tally
		// absorbed records by hash.
		{"dedup", &Env{Cover: &Cover{}}, false},
		// "dedup-tuples": the same under the tuple strategy, whose
		// decoder absorbs too.
		{"dedup-tuples", &Env{Fusion: fusion.Options{Tuples: true}, Cover: &Cover{}}, false},
		// "adaptive": the cover holds the whole corpus, so nearly every
		// record is absorbed.
		{"adaptive", seededEnv(t), false},
		{"plain-enrich", &Env{Fusion: fusion.Options{}, Enrich: set}, false},
		// A cover with enrichment on: the decoder absorbs nothing.
		{"dedup-enrich", &Env{Cover: &Cover{}, Enrich: set}, false},
	}
}

// seededEnv returns an Env whose cover is the fused type of the whole
// monoid corpus.
func seededEnv(t *testing.T) *Env {
	t.Helper()
	env := &Env{Cover: &Cover{}}
	if _, err := env.mapChunk(context.Background(), chunk{data: monoidNDJSON}); err != nil {
		t.Fatal(err)
	}
	return env
}

// empty returns the payload's identity accumulator.
func (p payload) empty() Accumulator {
	return p.env.newChunkAcc()
}

// buildChunk runs a chunk of records through the payload's real map
// path (mapChunk for chunked payloads, RunStream otherwise), so the
// harness exercises exactly what the engine produces. Each chunk starts
// from a copy of the payload's cover: the harness builds the same chunk
// more than once and expects the same accumulator.
func buildChunk(t *testing.T, p payload, data []byte) Accumulator {
	t.Helper()
	var (
		acc Accumulator
		err error
	)
	if p.stream {
		acc, _, err = RunStream(context.Background(), p.env, bytes.NewReader(data))
	} else {
		env := *p.env
		if env.Cover != nil {
			env.Cover = &Cover{t: env.Cover.get()}
		}
		acc, err = env.mapChunk(context.Background(), chunk{data: data})
	}
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// resultFingerprint renders every observable field of a folded Result,
// including the enrichment report, so two accumulators fingerprint
// equal iff they are observationally equal.
func resultFingerprint(t *testing.T, res Result) string {
	t.Helper()
	enr := "<nil>"
	if res.Enrichment != nil {
		data, err := res.Enrichment.MarshalReport()
		if err != nil {
			t.Fatal(err)
		}
		enr = string(data)
	}
	return fmt.Sprintf("fused=%s records=%d distinct=%d sizes=%d..%d avg=%v enrich=%s",
		res.Fused, res.Records, res.DistinctTypes, res.MinTypeSize, res.MaxTypeSize, res.AvgTypeSize, enr)
}

// TestAccumulatorConformance runs every accumulator payload — with and
// without enrichment — through the shared monoid-law harness: identity,
// commutativity, associativity, random merge trees versus the
// sequential fold, and non-mutation of the second operand. AvgTypeSize
// is fingerprinted exactly: the accumulator keeps integer
// sums (far below 2^53) and divides once, so any merge order yields
// the same bits.
func TestAccumulatorConformance(t *testing.T) {
	records := monoidRecords()
	for _, p := range payloads(t) {
		monoidtest.Run(t, monoidtest.Subject{
			Name:  p.name,
			Empty: func() any { return p.empty() },
			Rand: func(r *rand.Rand) any {
				// A random multiset of records in random order, joined
				// into one chunk — some draws are empty, covering the
				// empty-chunk accumulator.
				n := r.Intn(len(records) + 1)
				var chunk []byte
				for i := 0; i < n; i++ {
					chunk = append(chunk, records[r.Intn(len(records))]...)
					chunk = append(chunk, '\n')
				}
				if len(chunk) == 0 {
					return p.empty()
				}
				return buildChunk(t, p, chunk)
			},
			Merge: func(a, b any) any {
				return Combine(a.(Accumulator), b.(Accumulator))
			},
			Fingerprint: func(x any) string {
				return resultFingerprint(t, Fold(x.(Accumulator)))
			},
		})
	}
}

// TestCombineNilIdentity pins the engine's nil identity, which the
// harness cannot express: Combine treats nil as the zero accumulator
// and Fold(nil) is the empty Result.
func TestCombineNilIdentity(t *testing.T) {
	for _, p := range payloads(t) {
		t.Run(p.name, func(t *testing.T) {
			acc := buildChunk(t, p, monoidNDJSON)
			want := resultFingerprint(t, Fold(acc))
			if got := Combine(nil, acc); got != acc {
				t.Error("Combine(nil, acc) is not acc")
			}
			if got := Combine(acc, nil); got != acc {
				t.Error("Combine(acc, nil) is not acc")
			}
			if got := resultFingerprint(t, Fold(acc)); got != want {
				t.Errorf("nil combines changed the accumulator\n got %s\nwant %s", got, want)
			}
			empty := Fold(nil)
			if !types.Equal(empty.Fused, types.Empty) || empty.Records != 0 || empty.Enrichment != nil {
				t.Errorf("Fold(nil) = %+v, want empty Result", empty)
			}
		})
	}
}
