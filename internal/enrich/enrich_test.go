package enrich

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/enrich/monoidtest"
)

// fingerprint renders a monoid's abstract state: the serialized state
// plus the folded annotations (both deterministic).
func fingerprint(m Monoid) string {
	state, err := m.MarshalState()
	if err != nil {
		panic(err)
	}
	fold, err := json.Marshal(m.Fold())
	if err != nil {
		panic(err)
	}
	return fmt.Sprintf("empty=%v state=%s fold=%s", m.Empty(), state, fold)
}

// randStrings mixes format matches, near misses and plain words so the
// formats monoid exercises every counter.
var randStrings = []string{
	"2024-02-29", "1999-12-31", "2023-02-30", "2024-1-05", "2024-02-29T12:00:00Z",
	"2024-02-29T12:00:00+01:00", "2024-02-29T25:00:00Z",
	"f47ac10b-58cc-4372-a567-0e02b2c3d479", "F47AC10B-58CC-4372-A567-0E02B2C3D479",
	"f47ac10b-58cc-4372-a567-0e02b2c3d47", "http://example.com/a?b=c", "https://example.com",
	"http://", "ftp://example.com", "user@example.com", "user@localhost", "a@b.c",
	"@example.com", "hello", "", "   ", "123",
}

// randNums mixes integers, fractions, huge magnitudes and both zeros.
var randNums = []float64{
	0, -0.0, 1, -1, 0.5, -0.25, 3.14159, 1e17, -1e17, 1e-7, 2.5, 100, 42, 0.1, 1e300, -1e300,
}

// observeRandom feeds 0..23 random events into m.
func observeRandom(r *rand.Rand, m Monoid) {
	n := r.Intn(24)
	for i := 0; i < n; i++ {
		switch r.Intn(7) {
		case 0:
			m.Null()
		case 1:
			m.Bool(r.Intn(2) == 0)
		case 2:
			m.Num(randNums[r.Intn(len(randNums))])
		case 3:
			m.Str(randStrings[r.Intn(len(randStrings))])
		case 4:
			m.ArrayLen(r.Intn(10))
		case 5:
			m.Num(float64(r.Intn(5)))
		case 6:
			m.Object()
		}
	}
}

// TestMonoidConformance runs every catalogue monoid through the shared
// harness: identity, commutativity, associativity, random merge trees,
// second-operand purity and serialization round-trips.
func TestMonoidConformance(t *testing.T) {
	for _, def := range catalogue() {
		def := def
		monoidtest.Run(t, monoidtest.Subject{
			Name:  def.Name,
			Empty: func() any { return def.New() },
			Rand: func(r *rand.Rand) any {
				m := def.New()
				observeRandom(r, m)
				return m
			},
			Merge: func(a, b any) any {
				a.(Monoid).Merge(b.(Monoid))
				return a
			},
			Fingerprint: func(x any) string { return fingerprint(x.(Monoid)) },
			Marshal:     func(x any) ([]byte, error) { return x.(Monoid).MarshalState() },
			Unmarshal:   func(data []byte) (any, error) { return def.Unmarshal(data) },
		})
	}
}

// randLattice observes a few random synthetic values (records, arrays,
// scalars) into a fresh lattice of the set.
func randLattice(set *Set, r *rand.Rand) *Lattice {
	l := set.NewLattice()
	vals := r.Intn(6)
	for i := 0; i < vals; i++ {
		observeValue(r, l, 0)
	}
	return l
}

var latticeKeys = []string{"id", "name", "tags", "meta", "score"}

func observeValue(r *rand.Rand, l *Lattice, depth int) {
	kind := r.Intn(6)
	if depth >= 3 && kind >= 4 {
		kind = r.Intn(4)
	}
	switch kind {
	case 0:
		l.Null()
	case 1:
		l.Bool(r.Intn(2) == 0)
	case 2:
		l.Num(randNums[r.Intn(len(randNums))])
	case 3:
		l.Str(randStrings[r.Intn(len(randStrings))])
	case 4:
		l.BeginObject()
		n := r.Intn(3)
		for i := 0; i < n; i++ {
			l.Key(latticeKeys[r.Intn(len(latticeKeys))])
			observeValue(r, l, depth+1)
		}
		l.EndObject()
	case 5:
		l.BeginArray()
		n := r.Intn(4)
		for i := 0; i < n; i++ {
			observeValue(r, l, depth+1)
		}
		l.EndArray(n)
	}
}

func latticeJSON(t testing.TB, l *Lattice) string {
	t.Helper()
	data, err := json.Marshal(l)
	if err != nil {
		t.Fatalf("marshal lattice: %v", err)
	}
	return string(data)
}

func mustLatticeJSON(l *Lattice) string {
	data, err := json.Marshal(l)
	if err != nil {
		panic(err)
	}
	return string(data)
}

// TestLatticeConformance runs the whole Lattice (the composite the
// pipeline actually merges) through the same harness.
func TestLatticeConformance(t *testing.T) {
	set, err := ParseSet([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	monoidtest.Run(t, monoidtest.Subject{
		Name:  "lattice",
		Empty: func() any { return set.NewLattice() },
		Rand:  func(r *rand.Rand) any { return randLattice(set, r) },
		Merge: func(a, b any) any {
			a.(*Lattice).Merge(b.(*Lattice))
			return a
		},
		Fingerprint: func(x any) string { return mustLatticeJSON(x.(*Lattice)) },
		Marshal:     func(x any) ([]byte, error) { return json.Marshal(x.(*Lattice)) },
		Unmarshal:   func(data []byte) (any, error) { return UnmarshalLattice(data) },
	})
}

func TestParseSet(t *testing.T) {
	set, err := ParseSet([]string{"hll, ranges", "ranges"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(set.Names(), ","), "ranges,hll"; got != want {
		t.Fatalf("Names() = %s, want %s (canonical order, deduplicated)", got, want)
	}
	all, err := ParseSet([]string{"all"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(all.Names(), ","), strings.Join(Names(), ","); got != want {
		t.Fatalf("all = %s, want %s", got, want)
	}
	if _, err := ParseSet([]string{"ranges", "bogus"}); err == nil ||
		!strings.Contains(err.Error(), "bogus") {
		t.Fatalf("unknown monoid error = %v, want mention of bogus", err)
	}
	if _, err := ParseSet(nil); err == nil {
		t.Fatal("empty selection should error")
	}
}

func TestFormatDetection(t *testing.T) {
	cases := []struct {
		s    string
		want string // "" = no format
	}{
		{"2024-02-29", "date"},
		{"2023-02-30", ""}, // not a calendar date
		{"2024-1-05", ""},  // missing zero padding
		{"2024-02-29T12:00:00Z", "date-time"},
		{"2024-02-29T12:00:00+01:00", "date-time"},
		{"2024-02-29T25:00:00Z", ""}, // hour out of range
		{"f47ac10b-58cc-4372-a567-0e02b2c3d479", "uuid"},
		{"F47AC10B-58CC-4372-A567-0E02B2C3D479", "uuid"},
		{"f47ac10b-58cc-4372-a567-0e02b2c3d47", ""}, // one hex digit short
		{"http://example.com/a", "uri"},
		{"https://example.com", "uri"},
		{"http://", ""},
		{"ftp://example.com", ""},
		{"user@example.com", "email"},
		{"user@localhost", ""}, // no dot in domain
		{"a@b@c.com", ""},      // two @
		{"@example.com", ""},
		{"hello", ""},
	}
	for _, c := range cases {
		got := ""
		if i := detectFormat(c.s); i >= 0 {
			got = formatNames[i]
		}
		if got != c.want {
			t.Errorf("detectFormat(%q) = %q, want %q", c.s, got, c.want)
		}
	}
}

func TestFormatsFoldUnanimity(t *testing.T) {
	f := newFormats()
	f.Str("2024-02-29")
	f.Str("1999-12-31")
	out := f.Fold()
	if out["format"] != "date" {
		t.Fatalf("unanimous dates: Fold() = %v, want format=date", out)
	}
	f.Str("hello")
	if out := f.Fold(); out["format"] != nil {
		t.Fatalf("mixed strings must not assert format; got %v", out)
	}
}

func TestHLLEstimate(t *testing.T) {
	h := newHLL().(*hll)
	const n = 5000
	for i := 0; i < n; i++ {
		h.Str(fmt.Sprintf("value-%d", i))
	}
	est := h.estimate()
	if est < n*8/10 || est > n*12/10 {
		t.Fatalf("estimate for %d distinct = %d, want within 20%%", n, est)
	}
	// Idempotent under re-observation.
	before := fingerprint(h)
	for i := 0; i < n; i++ {
		h.Str(fmt.Sprintf("value-%d", i))
	}
	if after := fingerprint(h); after != before {
		t.Fatal("re-observing the same values changed the sketch")
	}
}

func TestHLLSmallRange(t *testing.T) {
	h := newHLL().(*hll)
	for i := 0; i < 3; i++ {
		h.Num(float64(i))
	}
	if est := h.estimate(); est != 3 {
		t.Fatalf("estimate for 3 distinct = %d, want 3 (linear counting)", est)
	}
}

func TestBloomContains(t *testing.T) {
	b := newBloom().(*bloom)
	b.Str("alpha")
	b.Num(42)
	b.Bool(true)
	for _, h := range []uint64{hashStr("alpha"), hashNum(42), hashBool(true)} {
		if !b.contains(h) {
			t.Fatal("observed value reported absent")
		}
	}
	if b.contains(hashStr("never-observed-sentinel")) {
		t.Fatal("false positive on a sparse filter (would be astronomically unlikely)")
	}
	// The string "42" and the number 42 are distinct values.
	if b.contains(hashStr("42")) {
		t.Fatal(`string "42" should not collide with number 42`)
	}
}

func TestDecimalPlaces(t *testing.T) {
	cases := []struct {
		f    float64
		want int
	}{
		{0.25, 2}, {0.5, 1}, {1e-7, 7}, {3.14159, 5}, {0.1, 1},
	}
	for _, c := range cases {
		if got := decimalPlaces(c.f); got != c.want {
			t.Errorf("decimalPlaces(%v) = %d, want %d", c.f, got, c.want)
		}
	}
}

// TestLatticeReport pins the path spelling and annotation placement of
// a small concrete lattice.
func TestLatticeReport(t *testing.T) {
	set, err := ParseSet([]string{"ranges", "formats", "lengths"})
	if err != nil {
		t.Fatal(err)
	}
	l := set.NewLattice()
	// {"a": 1.5, "tags": ["x", "2024-02-29"]} twice, varying the number.
	for _, v := range []float64{1.5, -2} {
		l.BeginObject()
		l.Key("a")
		l.Num(v)
		l.Key("tags")
		l.BeginArray()
		l.Str("2024-02-29")
		l.Str("1999-12-31")
		l.EndArray(2)
		l.EndObject()
	}
	rep := l.Report()
	if got := rep["$.a"]["minimum"]; got != float64(-2) {
		t.Fatalf("$.a minimum = %v, want -2 (report: %v)", got, rep)
	}
	if got := rep["$.a"]["maximum"]; got != float64(1.5) {
		t.Fatalf("$.a maximum = %v, want 1.5", got)
	}
	if got := rep["$.tags"]["x-observedMaxItems"]; got != int64(2) {
		t.Fatalf("$.tags x-observedMaxItems = %v (%T), want 2", got, got)
	}
	if got := rep["$.tags[]"]["format"]; got != "date" {
		t.Fatalf("$.tags[] format = %v, want date", got)
	}
	if _, ok := rep["$"]; ok {
		t.Fatalf("root has no scalar observations, report: %v", rep["$"])
	}
}

// TestUnionAcrossSets pins cross-configuration merging: the union of
// the monoid sets, commutative in both content and serialized bytes.
func TestUnionAcrossSets(t *testing.T) {
	sa, err := ParseSet([]string{"ranges"})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := ParseSet([]string{"formats"})
	if err != nil {
		t.Fatal(err)
	}
	a := sa.NewLattice()
	a.Num(7)
	b := sb.NewLattice()
	b.Str("user@example.com")

	ab := latticeJSON(t, Union(a, b))
	ba := latticeJSON(t, Union(b, a))
	if ab != ba {
		t.Fatalf("Union is not commutative across sets:\n a∪b %s\n b∪a %s", ab, ba)
	}
	rep := Union(a, b).Report()
	if rep["$"]["minimum"] != float64(7) || rep["$"]["format"] != "email" {
		t.Fatalf("union lost annotations: %v", rep)
	}
	// Union with nil is a clone.
	if got := latticeJSON(t, Union(a, nil)); got != latticeJSON(t, a) {
		t.Fatal("Union(a, nil) != a")
	}
	if Union(nil, nil) != nil {
		t.Fatal("Union(nil, nil) should be nil")
	}
}

// TestLatticeResetAfterError ensures a partially observed value (as
// after a decode error) can be discarded without corrupting the walk.
func TestLatticeResetAfterError(t *testing.T) {
	set, err := ParseSet([]string{"ranges"})
	if err != nil {
		t.Fatal(err)
	}
	l := set.NewLattice()
	l.BeginObject()
	l.Key("a")
	l.Reset()
	l.Num(5)
	if got := l.Report()["$"]["minimum"]; got != float64(5) {
		t.Fatalf("after Reset, the next value must observe at the root; report %v", l.Report())
	}
}

// TestCountsExactSum pins the exact numeric sum: float64 addition would
// lose the 1 below, and its bits would depend on the order of the adds.
func TestCountsExactSum(t *testing.T) {
	for _, order := range [][]float64{{1e17, 1, -1e17}, {1, 1e17, -1e17}, {-1e17, 1e17, 1}} {
		c := newCounts().(*counts)
		for _, f := range order {
			c.Num(f)
		}
		if got := c.sumRat().RatString(); got != "1" {
			t.Errorf("sum of %v = %s, want 1", order, got)
		}
	}
	c := newCounts().(*counts)
	c.Num(0.1)
	c.Num(0.2)
	state, err := c.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"num":2,"num_sum":"0.3000000000000000166533453693773481063544750213623046875"}`; string(state) != want {
		t.Errorf("state = %s, want %s", state, want)
	}
	if m := c.mean(); m != 0.15000000000000002 {
		t.Errorf("mean = %v, want the float64 nearest the exact mean", m)
	}
	for _, sum := range []string{`"1e5"`, `"0.1"`, `"1/2"`, `"0x10"`, `"` + strings.Repeat("1", maxSumText+1) + `"`} {
		if _, err := unmarshalCounts([]byte(`{"num":1,"num_sum":` + sum + `}`)); err == nil {
			t.Errorf("num_sum %.20s accepted", sum)
		}
	}
}

// geometryParams is the params member of every lattice document.
const geometryParams = `"params":{"hll_precision":8,"bloom_bits":1024,"bloom_hashes":4}`

// rejectedGeometries are lattice documents that declare a sketch
// geometry other than the fixed one, in their params or in one sketch
// state, or a sketch in the retired invalid state. Each was accepted
// while the geometry was a setting; the first allocated 72 KiB for
// each of its 4,001 nodes.
func rejectedGeometries() []struct{ name, doc string } {
	nodes := make([]string, 4000)
	for i := range nodes {
		nodes[i] = fmt.Sprintf(`"%d":{}`, i)
	}
	regs := make([]byte, 4096)
	regs[0] = 1
	bits := make([]byte, 256)
	bits[0] = 1
	state := func(monoid, st string) string {
		return `{"monoids":["` + monoid + `"],` + geometryParams + `,"root":{"states":{"` + monoid + `":` + st + `}}}`
	}
	return []struct{ name, doc string }{
		{"largest-parameters", `{"monoids":["bloom","hll"],"params":{"hll_precision":16,"bloom_bits":65536,"bloom_hashes":16},` +
			`"root":{"fields":{` + strings.Join(nodes, ",") + `}}}`},
		{"hll-p12", state("hll", `{"p":12,"regs":"`+base64.StdEncoding.EncodeToString(regs)+`"}`)},
		{"bloom-m2048", state("bloom", `{"m":2048,"k":4,"bits":"`+base64.StdEncoding.EncodeToString(bits)+`"}`)},
		{"hll-invalid", state("hll", `{"invalid":true}`)},
		{"bloom-invalid", state("bloom", `{"invalid":true}`)},
	}
}

// TestUnmarshalLatticeRejectsSketchGeometry: a lattice read from the
// wire must declare the one sketch geometry, and it is rejected before
// it costs memory. Unchecked, the first params document allocated
// 128 MiB per lattice node and the second panicked.
func TestUnmarshalLatticeRejectsSketchGeometry(t *testing.T) {
	cases := rejectedGeometries()
	for _, params := range []string{
		`{"hll_precision":8,"bloom_bits":1073741824,"bloom_hashes":4}`,
		`{"hll_precision":8,"bloom_bits":9223372036854775800,"bloom_hashes":4}`,
		`{"hll_precision":8,"bloom_bits":1004,"bloom_hashes":4}`,
		`{"hll_precision":8,"bloom_bits":56,"bloom_hashes":4}`,
		`{"hll_precision":8,"bloom_bits":1024,"bloom_hashes":0}`,
		`{"hll_precision":8,"bloom_bits":1024,"bloom_hashes":17}`,
		`{"hll_precision":3,"bloom_bits":1024,"bloom_hashes":4}`,
		`{"hll_precision":17,"bloom_bits":1024,"bloom_hashes":4}`,
		`{}`,
	} {
		cases = append(cases, struct{ name, doc string }{params, `{"monoids":["bloom","hll"],"params":` + params + `}`})
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := UnmarshalLattice([]byte(c.doc))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: rejecting it allocated %d bytes", c.name, grew)
		}
	}
	if _, err := UnmarshalLattice([]byte(`{"monoids":["bloom","hll"],` + geometryParams + `}`)); err != nil {
		t.Errorf("the fixed geometry is rejected: %v", err)
	}
}
