package chaos_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	jsi "repro"
	"repro/internal/chaos"
	"repro/internal/dataset"
	"repro/internal/jsontext"
	"repro/internal/mapreduce"
)

// testInput generates one deterministic NDJSON corpus for the harness.
func testInput(t *testing.T, name string, n int) []byte {
	t.Helper()
	g, err := dataset.New(name)
	if err != nil {
		t.Fatalf("dataset.New(%q): %v", name, err)
	}
	return dataset.NDJSON(g, n, 20170321)
}

// publicInjector adapts a chaos plan to the public API's hook.
func publicInjector(p chaos.Plan) jsi.FaultInjector {
	return func(chunk, attempt int) jsi.InjectedFault {
		delay, err := p.Fault(chunk, attempt)
		return jsi.InjectedFault{Delay: delay, Err: err}
	}
}

// schemaJSON renders a schema to its canonical bytes.
func schemaJSON(t *testing.T, s *jsi.Schema) []byte {
	t.Helper()
	b, err := s.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	return b
}

// TestRetryByteIdenticalAcrossSchedules is the harness's acceptance
// criterion: with a Retry policy and only transient injected faults,
// the inferred schema is byte-identical to a no-fault reference across
// >= 100 randomized failure schedules, over an in-memory buffer and over
// a stream cut into chunks as it is read. The fusion laws make retried
// outputs meet the fold in a different order without changing the
// reduction, and this test is the executable evidence.
func TestRetryByteIdenticalAcrossSchedules(t *testing.T) {
	data := testInput(t, "mixed", 400)
	opts := jsi.Options{Workers: 4}
	refSchema, refStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refJSON := schemaJSON(t, refSchema)

	const schedules = 120
	sources := []struct {
		name       string
		src        func() jsi.Source
		chunkBytes int
	}{
		{"FromBytes", func() jsi.Source { return jsi.FromBytes(data) }, 0},
		{"FromReader", func() jsi.Source { return jsi.FromReader(bytes.NewReader(data)) }, 4 << 10},
	}
	for _, s := range sources {
		totalRetries := 0
		for seed := int64(1); seed <= schedules; seed++ {
			plan := chaos.DefaultPlan(seed)
			opts := jsi.Options{
				Workers:       4,
				ChunkBytes:    s.chunkBytes,
				Retries:       plan.MaxTransient,
				FaultInjector: publicInjector(plan),
			}
			schema, st, err := jsi.Infer(context.Background(), s.src(), opts)
			if err != nil {
				t.Fatalf("%s, seed %d: %v", s.name, seed, err)
			}
			if got := schemaJSON(t, schema); !bytes.Equal(got, refJSON) {
				t.Fatalf("%s, seed %d: schema diverged from reference\n got: %s\nwant: %s", s.name, seed, got, refJSON)
			}
			if st.Records != refStats.Records {
				t.Fatalf("%s, seed %d: Records = %d, want %d", s.name, seed, st.Records, refStats.Records)
			}
			if st.QuarantinedChunks != 0 {
				t.Fatalf("%s, seed %d: QuarantinedChunks = %d, want 0 (transient-only plan)", s.name, seed, st.QuarantinedChunks)
			}
			totalRetries += st.Retries
		}
		if totalRetries == 0 {
			t.Fatalf("%s: no retries across %d schedules: the plans injected nothing", s.name, schedules)
		}
		t.Logf("%s: %d schedules, %d retried attempts, schema byte-identical throughout", s.name, schedules, totalRetries)
	}
}

// TestRetryEnrichmentByteIdentical re-runs the retry acceptance
// criterion with the enrichment lattice on: across randomized
// transient-fault schedules, the annotated JSON Schema and the
// per-path enrichment report must be byte-identical to a no-fault
// enriched reference.
//
// This pins the engine's exactly-once-combine stance for enrichment
// under at-least-once map execution: a failed chunk attempt discards
// its lattice along with its accumulator, so a retried chunk's values
// are counted once no matter how many attempts ran. The guarantee is
// NOT the sketches' idempotence — HyperLogLog (register max) and Bloom
// (bit or) would absorb double-counting, but the exact counters
// (ranges' count, array-length sums, format tallies) would not, and a
// single drifting average in x-observedAvgItems breaks byte equality.
// The byte-identical report across schedules is therefore evidence the
// discard-on-failure path works, not merely that the sketches forgive.
func TestRetryEnrichmentByteIdentical(t *testing.T) {
	data := testInput(t, "mixed", 400)
	enrich := []string{"all"}
	refSchema, refStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data),
		jsi.Options{Workers: 4, Enrich: enrich})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	refJS, err := refSchema.JSONSchema()
	if err != nil {
		t.Fatal(err)
	}
	refReport, err := refSchema.EnrichmentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !refSchema.Enriched() {
		t.Fatal("reference run is not enriched")
	}

	const schedules = 60
	totalRetries := 0
	for seed := int64(1); seed <= schedules; seed++ {
		plan := chaos.DefaultPlan(seed)
		opts := jsi.Options{
			Workers:       4,
			Retries:       plan.MaxTransient,
			FaultInjector: publicInjector(plan),
			Enrich:        enrich,
		}
		schema, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		js, jerr := schema.JSONSchema()
		if jerr != nil {
			t.Fatal(jerr)
		}
		if !bytes.Equal(js, refJS) {
			t.Fatalf("seed %d: annotated schema diverged under faults\n got: %s\nwant: %s", seed, js, refJS)
		}
		rep, rerr := schema.EnrichmentJSON()
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(rep, refReport) {
			t.Fatalf("seed %d: enrichment report diverged under faults\n got: %s\nwant: %s", seed, rep, refReport)
		}
		if st.Records != refStats.Records {
			t.Fatalf("seed %d: Records = %d, want %d", seed, st.Records, refStats.Records)
		}
		totalRetries += st.Retries
	}
	if totalRetries == 0 {
		t.Fatalf("no retries across %d schedules: the plans injected nothing", schedules)
	}
	t.Logf("%d schedules, %d retried attempts, enrichment byte-identical throughout", schedules, totalRetries)
}

// TestRetryByteIdenticalWithDedup re-runs the retry acceptance
// criterion on the two extremes of absorption: twitter's chunks absorb
// most records against the run's cover, wikidata's type most of
// theirs. A failed attempt may have absorbed records before it failed,
// and only a successful attempt adds its chunk to the cover; none of it
// may corrupt the result — schema bytes, record counts AND the exact
// distinct-type count must match a fault-free reference across
// randomized schedules.
func TestRetryByteIdenticalWithDedup(t *testing.T) {
	for _, name := range []string{"twitter", "wikidata"} {
		data := testInput(t, name, 400)
		refSchema, refStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: 4})
		if err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}
		refJSON := schemaJSON(t, refSchema)
		if refStats.DistinctTypes <= 0 {
			t.Fatalf("%s: reference DistinctTypes = %d, want > 0", name, refStats.DistinctTypes)
		}

		const schedules = 30
		totalRetries := 0
		for seed := int64(1); seed <= schedules; seed++ {
			plan := chaos.DefaultPlan(seed)
			opts := jsi.Options{
				Workers:       4,
				Retries:       plan.MaxTransient,
				FaultInjector: publicInjector(plan),
			}
			schema, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if got := schemaJSON(t, schema); !bytes.Equal(got, refJSON) {
				t.Fatalf("%s seed %d: schema diverged under faults\n got: %s\nwant: %s", name, seed, got, refJSON)
			}
			if st.Records != refStats.Records {
				t.Fatalf("%s seed %d: Records = %d, want %d (retries must not double-count multisets)", name, seed, st.Records, refStats.Records)
			}
			if st.DistinctTypes != refStats.DistinctTypes {
				t.Fatalf("%s seed %d: DistinctTypes = %d, want %d", name, seed, st.DistinctTypes, refStats.DistinctTypes)
			}
			totalRetries += st.Retries
		}
		if totalRetries == 0 {
			t.Fatalf("%s: no retries across %d schedules: the plans injected nothing", name, schedules)
		}
	}
}

// TestRetryTaggedUnionsByteIdentical re-runs the retry acceptance
// criterion with the tagged-union policy on, over the two
// discriminator-bearing generators. The Variants merge participates in
// the fusion monoid, so retried chunk outputs meeting the fold in a
// different order — possibly crossing the variant cap in a different
// sequence — must still produce byte-identical schemas across 60
// randomized transient-fault schedules.
func TestRetryTaggedUnionsByteIdentical(t *testing.T) {
	for _, name := range []string{"eventlog", "webhook"} {
		data := testInput(t, name, 400)
		refSchema, refStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data),
			jsi.Options{Workers: 4, TaggedUnions: true})
		if err != nil {
			t.Fatalf("%s: reference run: %v", name, err)
		}
		refJSON := schemaJSON(t, refSchema)
		if !bytes.Contains(refJSON, []byte(`"variants"`)) {
			t.Fatalf("%s: tagged reference inferred no variants node:\n%s", name, refJSON)
		}

		const schedules = 60
		totalRetries := 0
		for seed := int64(1); seed <= schedules; seed++ {
			plan := chaos.DefaultPlan(seed)
			opts := jsi.Options{
				Workers:       4,
				TaggedUnions:  true,
				Retries:       plan.MaxTransient,
				FaultInjector: publicInjector(plan),
			}
			schema, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if got := schemaJSON(t, schema); !bytes.Equal(got, refJSON) {
				t.Fatalf("%s seed %d: tagged schema diverged under faults\n got: %s\nwant: %s",
					name, seed, got, refJSON)
			}
			if st.Records != refStats.Records {
				t.Fatalf("%s seed %d: Records = %d, want %d", name, seed, st.Records, refStats.Records)
			}
			totalRetries += st.Retries
		}
		if totalRetries == 0 {
			t.Fatalf("%s: no retries across %d schedules: the plans injected nothing", name, schedules)
		}
		t.Logf("%s: %d schedules, %d retried attempts, tagged schema byte-identical", name, schedules, totalRetries)
	}
}

// pickPermanentPlan finds a deterministic plan that fails some but not
// all of the first n tasks permanently, so a Skip run both quarantines
// and completes with records.
func pickPermanentPlan(t *testing.T, n int) chaos.Plan {
	t.Helper()
	for seed := int64(1); seed <= 100; seed++ {
		p := chaos.Plan{Seed: seed, PFault: 0.3, PPermanent: 1}
		if k := p.PermanentTasks(n); k >= 1 && k <= n/2 {
			return p
		}
	}
	t.Fatal("no seed in 1..100 yields a usable permanent-fault plan")
	return chaos.Plan{}
}

// TestSkipQuarantinesPermanentChunks drives permanent faults through
// the public API: under OnErrorSkip the run completes, reports the
// quarantined chunk count in Stats and in the mapreduce_skipped
// counter, and drops exactly the poisoned chunks' records; under the
// default OnErrorFail the same schedule aborts the run.
func TestSkipQuarantinesPermanentChunks(t *testing.T) {
	data := testInput(t, "github", 400)
	const workers = 4
	nChunks := workers * 4 // FromBytes splits into workers*4 chunks
	plan := pickPermanentPlan(t, nChunks)
	want := plan.PermanentTasks(nChunks)

	_, refStats, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{Workers: workers})
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	col := jsi.NewCollector()
	opts := jsi.Options{
		Workers:       workers,
		OnError:       jsi.OnErrorSkip,
		FaultInjector: publicInjector(plan),
		Collector:     col,
	}
	_, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts)
	if err != nil {
		t.Fatalf("skip run: %v", err)
	}
	if st.QuarantinedChunks != want {
		t.Errorf("QuarantinedChunks = %d, want %d (plan seed %d)", st.QuarantinedChunks, want, plan.Seed)
	}
	if st.Records >= refStats.Records {
		t.Errorf("Records = %d, want fewer than the reference's %d (quarantined chunks drop records)", st.Records, refStats.Records)
	}
	if got := col.Metrics().Counters["mapreduce_skipped"]; got != int64(want) {
		t.Errorf("mapreduce_skipped = %d, want %d", got, want)
	}

	// The same schedule under the default policy must abort instead.
	_, _, err = jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{
		Workers:       workers,
		FaultInjector: publicInjector(plan),
	})
	if !errors.Is(err, chaos.ErrInjectedPermanent) {
		t.Errorf("OnErrorFail err = %v, want wrapped ErrInjectedPermanent", err)
	}
}

// TestSkipDedupMatchesDefault: under OnErrorSkip, a quarantined
// chunk's accumulator is dropped wholesale, never partially merged,
// and never joins the cover, so its records reach neither the schema
// nor the distinct count, and no later chunk absorbs against them. The
// skip run must therefore equal a fault-free run over just the surviving
// chunks: same schema, same records, same exact distinct types.
func TestSkipDedupMatchesDefault(t *testing.T) {
	data := testInput(t, "github", 400)
	const workers = 4
	plan := pickPermanentPlan(t, workers*4)

	schema, st, err := jsi.Infer(context.Background(), jsi.FromBytes(data), jsi.Options{
		Workers:       workers,
		OnError:       jsi.OnErrorSkip,
		FaultInjector: publicInjector(plan),
	})
	if err != nil {
		t.Fatalf("skip run: %v", err)
	}

	// FromBytes feeds the same split in order, so chunk i is task i.
	var survivors []byte
	for i, chunk := range jsontext.SplitLines(data, workers*4) {
		if _, err := plan.Fault(i, 0); !errors.Is(err, chaos.ErrInjectedPermanent) {
			survivors = append(survivors, chunk...)
		}
	}
	want, wantStats, err := jsi.Infer(context.Background(), jsi.FromBytes(survivors), jsi.Options{Workers: workers})
	if err != nil {
		t.Fatalf("survivors run: %v", err)
	}

	if got, want := schemaJSON(t, schema), schemaJSON(t, want); !bytes.Equal(got, want) {
		t.Errorf("skip schema diverged from the survivors'\n got: %s\nwant: %s", got, want)
	}
	if st.Records != wantStats.Records || st.DistinctTypes != wantStats.DistinctTypes {
		t.Errorf("skip Records/DistinctTypes = %d/%d, want the survivors' %d/%d",
			st.Records, st.DistinctTypes, wantStats.Records, wantStats.DistinctTypes)
	}
	if want := plan.PermanentTasks(workers * 4); st.QuarantinedChunks != want {
		t.Errorf("QuarantinedChunks = %d, want %d", st.QuarantinedChunks, want)
	}
}

// TestRetriedRunMetricsMatchCleanRun is the observability property:
// after stripping timing- and fault-dependent metrics, and the cache
// counters a re-parsed chunk legitimately bumps by re-interning, the
// merged snapshots of a retried run equal those of a clean run over the
// same partitions — retried attempts record nothing until they succeed,
// so faults leave no trace outside the fault counters themselves.
func TestRetriedRunMetricsMatchCleanRun(t *testing.T) {
	partitions := [][]byte{
		testInput(t, "github", 200),
		testInput(t, "twitter", 200),
	}

	run := func(data []byte, inject bool, seed int64) jsi.Metrics {
		t.Helper()
		col := jsi.NewCollector()
		opts := jsi.Options{Workers: 4, Collector: col}
		if inject {
			plan := chaos.DefaultPlan(seed)
			opts.Retries = plan.MaxTransient
			opts.FaultInjector = publicInjector(plan)
		}
		if _, _, err := jsi.Infer(context.Background(), jsi.FromBytes(data), opts); err != nil {
			t.Fatalf("run (inject=%v, seed %d): %v", inject, seed, err)
		}
		return col.Metrics()
	}

	var clean, faulty jsi.Metrics
	for i, data := range partitions {
		clean = clean.Merge(run(data, false, 0))
		faulty = faulty.Merge(run(data, true, int64(40+i)))
	}

	if got := faulty.WithoutTimings().Counters["mapreduce_retries"]; got == 0 {
		t.Fatal("faulty run recorded no mapreduce_retries (plan injected nothing, or WithoutTimings stripped a fault counter)")
	}

	cleanJSON, err := clean.WithoutTimings().WithoutFaults().WithoutCache().MarshalJSON()
	if err != nil {
		t.Fatalf("marshal clean: %v", err)
	}
	faultyJSON, err := faulty.WithoutTimings().WithoutFaults().WithoutCache().MarshalJSON()
	if err != nil {
		t.Fatalf("marshal faulty: %v", err)
	}
	if !bytes.Equal(cleanJSON, faultyJSON) {
		t.Errorf("snapshots diverge after WithoutTimings+WithoutFaults+WithoutCache\nclean:  %s\nfaulty: %s", cleanJSON, faultyJSON)
	}
}

// TestEngineStragglersTimeOutAndRecover exercises the straggler path at
// the engine level: every task stalls for a few milliseconds, fails,
// and is retried to success — the map-reduce answer is unchanged.
func TestEngineStragglersTimeOutAndRecover(t *testing.T) {
	plan := chaos.Plan{
		Seed:         11,
		PFault:       1, // every task fails its first attempt...
		MaxTransient: 1,
		PStraggle:    1, // ...after stalling as a straggler
		MaxDelay:     5 * time.Millisecond,
	}
	items := make([]int, 40)
	wantSum := 0
	for i := range items {
		items[i] = i + 1
		wantSum += i + 1
	}
	cfg := mapreduce.Config{
		Workers:  8,
		Injector: plan.Injector(),
		Failure:  mapreduce.FailurePolicy{Retries: 3},
	}
	mapFn := func(_ context.Context, v int) (int, error) { return v, nil }
	sum, st, err := mapreduce.RunSlice(context.Background(), items, mapFn, func(a, b int) int { return a + b }, 0, cfg)
	if err != nil {
		t.Fatalf("RunSlice: %v", err)
	}
	if sum != wantSum {
		t.Errorf("sum = %d, want %d", sum, wantSum)
	}
	if st.Retries == 0 {
		t.Error("Retries = 0, want > 0")
	}
}

// TestPlanDeterminism pins the schedule algebra: equal plans inject
// identical faults, different seeds diverge, the zero plan injects
// nothing, and the counting helpers agree with the raw lookups.
func TestPlanDeterminism(t *testing.T) {
	const n = 64
	a := chaos.DefaultPlan(42)
	b := chaos.DefaultPlan(42)
	other := chaos.DefaultPlan(43)
	diverged := false
	faulty := 0
	for seq := 0; seq < n; seq++ {
		taskFaulty := false
		for attempt := 0; attempt < 4; attempt++ {
			ad, ae := a.Fault(seq, attempt)
			bd, be := b.Fault(seq, attempt)
			if ad != bd || (ae == nil) != (be == nil) {
				t.Fatalf("equal plans diverge at (%d, %d)", seq, attempt)
			}
			if ae != nil && !errors.Is(ae, chaos.ErrInjected) {
				t.Fatalf("transient-only plan injected a non-transient error at (%d, %d): %v", seq, attempt, ae)
			}
			od, oe := other.Fault(seq, attempt)
			if ad != od || (ae == nil) != (oe == nil) {
				diverged = true
			}
			if ae != nil {
				taskFaulty = true
			}
			if zd, ze := (chaos.Plan{Seed: 1}).Fault(seq, attempt); zd != 0 || ze != nil {
				t.Fatalf("zero-probability plan injected a fault at (%d, %d)", seq, attempt)
			}
		}
		if taskFaulty {
			faulty++
		}
	}
	if !diverged {
		t.Error("seeds 42 and 43 produce identical schedules over 64 tasks")
	}
	if got := a.FaultyTasks(n); got != faulty {
		t.Errorf("FaultyTasks(%d) = %d, want %d (counted from Fault lookups)", n, got, faulty)
	}
	if got := a.PermanentTasks(n); got != 0 {
		t.Errorf("PermanentTasks(%d) = %d, want 0 for a transient-only plan", n, got)
	}
}
