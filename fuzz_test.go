package jsoninference_test

import (
	"bytes"
	"context"
	"testing"

	jsi "repro"
)

// FuzzInferEndToEnd fuzzes the public API with the differential oracle
// of differential_test.go: for arbitrary input bytes the 8-worker
// chunked pipeline, the 1-worker sequential run and the streaming
// decoder must agree on acceptance, on the inferred schema's canonical
// bytes, and on the record count. The fuzzer hunts for inputs that make
// chunk boundaries or scheduling observable — exactly what the fusion
// laws forbid.
func FuzzInferEndToEnd(f *testing.F) {
	f.Add([]byte(`{"a":1}` + "\n" + `{"a":"s","b":[1,2]}`))
	f.Add([]byte("1 2 3"))
	f.Add([]byte(`{"a":{"b":[null,true,{"c":1.5e10}]}}`))
	f.Add([]byte("[[[[[]]]]]"))
	f.Add([]byte("{}\n[]\n\"\"\n0\nnull\nfalse"))
	f.Add([]byte("  \n\t "))
	f.Add([]byte(`{"a":1`)) // truncated: both paths must reject
	// Enrichment-sensitive shapes: near-miss date strings that must NOT
	// be classified as formats, huge and tiny magnitudes for min/max,
	// and mixed integer/fractional precision in one field.
	f.Add([]byte(`{"d":"2023-02-30"}` + "\n" + `{"d":"2024-1-05"}` + "\n" + `{"d":"2024-01-05"}`))
	f.Add([]byte(`{"n":1e300}` + "\n" + `{"n":-1e300}` + "\n" + `{"n":5e-324}` + "\n" + `{"n":-0.0}`))
	f.Add([]byte(`{"x":1}` + "\n" + `{"x":1.5}` + "\n" + `{"x":2}` + "\n" + `{"u":"6ba7b810-9dad-11d1-80b4-00c04fd430c8"}`))
	// Escape-heavy shapes for the zero-copy lexer: multi-escape strings,
	// UTF-16 surrogate pairs, lone surrogates, escaped field names and
	// JS line separators — everything that forces the scanner off its
	// escape-free fast path and through the byte-slice decode loop.
	f.Add([]byte(`{"s":"\u0041\u00e9\u4e2d\ufeff"}` + "\n" + `{"s":"\ud83d\ude00 pair"}`))
	f.Add([]byte(`{"\ud834\udd1e":"\\\\\\"\\n\\t"}` + "\n" + `{"q":"a\u0020b\ud800c"}` + "\n" + `{"q":"\udc00 lone low"}`))
	f.Add([]byte(`{"e":"\\\\\\\\\\"\\/\\b\\f\\n\\r\\t\u2028\u2029"}` + "\n" + `{"e":"plain then \ud83d\ude00\uD83D"}`))
	// Tagged-union shapes: discriminator flips (same key, different tag
	// values, divergent payloads), records missing the discriminator that
	// must fall through to the catch-all, high-cardinality tag near-misses
	// that trip the variant cap mid-stream, wrapper-style single-field
	// envelopes, and non-string discriminators that must block promotion.
	f.Add([]byte(`{"type":"a","x":1}` + "\n" + `{"type":"b","y":"s"}` + "\n" + `{"type":"a","x":2,"z":true}`))
	f.Add([]byte(`{"type":"push","n":1}` + "\n" + `{"n":2}` + "\n" + `{"type":"fork","n":3}` + "\n" + `{"other":null}`))
	f.Add([]byte(`{"event":"t01"}` + "\n" + `{"event":"t02"}` + "\n" + `{"event":"t03"}` + "\n" + `{"event":"t04"}` + "\n" +
		`{"event":"t05"}` + "\n" + `{"event":"t06"}` + "\n" + `{"event":"t07"}` + "\n" + `{"event":"t08"}` + "\n" +
		`{"event":"t09"}` + "\n" + `{"event":"t10"}` + "\n" + `{"event":"t11"}` + "\n" + `{"event":"t12"}` + "\n" +
		`{"event":"t13"}` + "\n" + `{"event":"t14"}` + "\n" + `{"event":"t15"}` + "\n" + `{"event":"t16"}` + "\n" +
		`{"event":"t17"}` + "\n" + `{"event":"t18"}`))
	f.Add([]byte(`{"delete":{"id":1}}` + "\n" + `{"scrub_geo":{"id":2}}` + "\n" + `{"text":"tweet","id":3}`))
	f.Add([]byte(`{"kind":42,"v":1}` + "\n" + `{"kind":"ok","v":2}` + "\n" + `{"kind":null,"v":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		seqSchema, seqStats, seqErr := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 1})
		parSchema, parStats, parErr := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 8})
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("acceptance diverged: sequential err = %v, parallel err = %v", seqErr, parErr)
		}
		if seqErr != nil {
			return
		}
		seqJSON, err := seqSchema.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal sequential: %v", err)
		}
		parJSON, err := parSchema.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal parallel: %v", err)
		}
		if !bytes.Equal(seqJSON, parJSON) {
			t.Fatalf("schemas diverged\n sequential: %s\n   parallel: %s", seqJSON, parJSON)
		}
		if seqStats.Records != parStats.Records {
			t.Fatalf("Records diverged: sequential %d, parallel %d", seqStats.Records, parStats.Records)
		}

		// Cross-check the constant-memory streaming path.
		rdSchema, rdStats, rdErr := jsi.Infer(context.Background(), jsi.FromReader(bytes.NewReader(data)), jsi.Options{})
		if rdErr != nil {
			t.Fatalf("streaming rejected input the chunked pipeline accepted: %v", rdErr)
		}
		rdJSON, err := rdSchema.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal streaming: %v", err)
		}
		if !bytes.Equal(seqJSON, rdJSON) {
			t.Fatalf("streaming schema diverged\n sequential: %s\n  streaming: %s", seqJSON, rdJSON)
		}
		if rdStats.Records != seqStats.Records {
			t.Fatalf("streaming Records = %d, want %d", rdStats.Records, seqStats.Records)
		}

		// Cross-check absorption against the fold that types every
		// record. Chunks absorb what the schema fused so far covers; the
		// fuzzer hunts for shapes where absorbing, or tallying an
		// absorbed record by its token-computed hash, would become
		// observable in the schema or any Stats field.
		plSchema, plStats, plErr := jsi.InferPlain(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 8})
		if plErr != nil {
			t.Fatalf("plain fold rejected input the absorbing pipeline accepted: %v", plErr)
		}
		plJSON, err := plSchema.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal plain: %v", err)
		}
		if !bytes.Equal(seqJSON, plJSON) {
			t.Fatalf("plain schema diverged\n absorbing: %s\n     plain: %s", seqJSON, plJSON)
		}
		if plStats != seqStats || parStats != seqStats {
			t.Fatalf("Stats diverged: sequential %+v, parallel %+v, plain %+v", seqStats, parStats, plStats)
		}

		// Tagged-union variants: the Variants merge must keep the policy
		// inside the fusion monoid, so sequential, parallel chunked and
		// streaming tagged runs agree byte for byte on
		// arbitrary accepted inputs — including discriminator flips,
		// missing discriminators and cap-tripping tag cardinalities.
		tgSchema, tgStats, tgErr := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 1, TaggedUnions: true})
		if tgErr != nil {
			t.Fatalf("tagged run rejected input the plain pipeline accepted: %v", tgErr)
		}
		tgJSON, err := tgSchema.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal tagged: %v", err)
		}
		if tgStats.Records != seqStats.Records {
			t.Fatalf("tagged Records = %d, want %d", tgStats.Records, seqStats.Records)
		}
		for _, variant := range []struct {
			label string
			src   jsi.Source
			opts  jsi.Options
		}{
			{"parallel", jsi.FromBytes(data), jsi.Options{Workers: 8, TaggedUnions: true}},
			{"streaming", jsi.FromReader(bytes.NewReader(data)), jsi.Options{TaggedUnions: true}},
		} {
			vs, vst, verr := jsi.Infer(context.Background(), variant.src, variant.opts)
			if verr != nil {
				t.Fatalf("tagged %s rejected accepted input: %v", variant.label, verr)
			}
			vJSON, err := vs.MarshalJSON()
			if err != nil {
				t.Fatalf("marshal tagged %s: %v", variant.label, err)
			}
			if !bytes.Equal(vJSON, tgJSON) {
				t.Fatalf("tagged %s schema diverged\n got: %s\nwant: %s", variant.label, vJSON, tgJSON)
			}
			if vst.Records != tgStats.Records {
				t.Fatalf("tagged %s Records = %d, want %d", variant.label, vst.Records, tgStats.Records)
			}
		}

		// Enrichment-on variants: the lattice must be additive (identical
		// structural bytes and Stats) and deterministic (annotated schema
		// and report byte-identical across sequential, parallel chunked,
		// and streaming execution) on arbitrary accepted inputs.
		enrich := []string{"all"}
		enSchema, enStats, enErr := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 1, Enrich: enrich})
		if enErr != nil {
			t.Fatalf("enriched run rejected input the plain pipeline accepted: %v", enErr)
		}
		enJSON, err := enSchema.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal enriched: %v", err)
		}
		if !bytes.Equal(seqJSON, enJSON) {
			t.Fatalf("enrichment changed structural schema\n plain: %s\n enriched: %s", seqJSON, enJSON)
		}
		if enStats != seqStats {
			t.Fatalf("enrichment changed Stats: %+v vs %+v", enStats, seqStats)
		}
		refJS, err := enSchema.JSONSchema()
		if err != nil {
			t.Fatalf("JSONSchema enriched: %v", err)
		}
		refReport, err := enSchema.EnrichmentJSON()
		if err != nil {
			t.Fatalf("EnrichmentJSON: %v", err)
		}
		for _, variant := range []struct {
			label string
			src   jsi.Source
			opts  jsi.Options
		}{
			{"parallel", jsi.FromBytes(data), jsi.Options{Workers: 8, Enrich: enrich}},
			{"streaming", jsi.FromReader(bytes.NewReader(data)), jsi.Options{Enrich: enrich}},
		} {
			vs, vst, verr := jsi.Infer(context.Background(), variant.src, variant.opts)
			if verr != nil {
				t.Fatalf("enriched %s rejected accepted input: %v", variant.label, verr)
			}
			vjs, err := vs.JSONSchema()
			if err != nil {
				t.Fatalf("JSONSchema enriched %s: %v", variant.label, err)
			}
			if !bytes.Equal(vjs, refJS) {
				t.Fatalf("enriched %s annotated schema diverged\n got: %s\nwant: %s", variant.label, vjs, refJS)
			}
			vrep, err := vs.EnrichmentJSON()
			if err != nil {
				t.Fatalf("EnrichmentJSON %s: %v", variant.label, err)
			}
			if !bytes.Equal(vrep, refReport) {
				t.Fatalf("enriched %s report diverged\n got: %s\nwant: %s", variant.label, vrep, refReport)
			}
			if vst.Records != seqStats.Records {
				t.Fatalf("enriched %s Records = %d, want %d", variant.label, vst.Records, seqStats.Records)
			}
		}
	})
}
