package serving

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	jsi "repro"
	"repro/internal/dataset"
)

// newTestServer builds a Server over a scratch data dir and mounts it
// on an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return srv, hs
}

// doReq issues one request and returns status and body.
func doReq(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out, rerr := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); rerr == nil {
		rerr = cerr
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
	return resp.StatusCode, out
}

func ingest(t *testing.T, base, tenant, partition string, data []byte) {
	t.Helper()
	status, body := doReq(t, http.MethodPost,
		fmt.Sprintf("%s/v1/tenants/%s/ingest?partition=%s", base, tenant, partition), data)
	if status != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", status, body)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	status, body := doReq(t, http.MethodGet, hs.URL+"/healthz", nil)
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: status %d, body %s", status, body)
	}
	ingest(t, hs.URL, "m", "default", []byte(`{"a":1}`+"\n"))
	status, body = doReq(t, http.MethodGet, hs.URL+"/v1/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, body)
	}
	if doc.Counters["schemad_ingest_records"] != 1 {
		t.Errorf("schemad_ingest_records = %d, want 1\n%s", doc.Counters["schemad_ingest_records"], body)
	}
}

// TestIngestMatchesOffline is the core serving guarantee: batches
// ingested over HTTP across partitions fuse to the same schema as
// offline inference over the concatenation — byte-identical in codec
// format.
func TestIngestMatchesOffline(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	g, err := dataset.New("github")
	if err != nil {
		t.Fatal(err)
	}
	data := dataset.NDJSON(g, 300, 7)
	lines := bytes.SplitAfter(data, []byte("\n"))
	third := len(lines) / 3
	ingest(t, hs.URL, "acme", "p0", bytes.Join(lines[:third], nil))
	ingest(t, hs.URL, "acme", "p1", bytes.Join(lines[third:2*third], nil))
	ingest(t, hs.URL, "acme", "p0", bytes.Join(lines[2*third:], nil))

	status, got := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/acme/schema?format=codec", nil)
	if status != http.StatusOK {
		t.Fatalf("schema: status %d: %s", status, got)
	}
	offline, _, err := jsi.InferNDJSON(data, jsi.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := offline.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want) {
		t.Errorf("served schema differs from offline:\nserved:  %s\noffline: %s", got, want)
	}
}

// TestTenantIsolation: two tenants with different data never see each
// other's fields.
func TestTenantIsolation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ingest(t, hs.URL, "alpha", "default", []byte(`{"alpha_only":1}`+"\n"))
	ingest(t, hs.URL, "beta", "default", []byte(`{"beta_only":"x"}`+"\n"))
	_, a := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/alpha/schema", nil)
	_, b := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/beta/schema", nil)
	if bytes.Contains(a, []byte("beta_only")) || bytes.Contains(b, []byte("alpha_only")) {
		t.Errorf("tenant schemas leaked across tenants:\nalpha: %s\nbeta: %s", a, b)
	}
}

func TestSchemaFormats(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ingest(t, hs.URL, "f", "default", []byte(`{"a":1}`+"\n"))
	for _, format := range []string{"type", "indent", "jsonschema", "codec"} {
		status, body := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/f/schema?format="+format, nil)
		if status != http.StatusOK || len(bytes.TrimSpace(body)) == 0 {
			t.Errorf("format %s: status %d, body %q", format, status, body)
		}
	}
	status, _ := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/f/schema?format=bogus", nil)
	if status != http.StatusBadRequest {
		t.Errorf("bogus format: status %d, want 400", status)
	}
}

func TestPartitionEndpoints(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ingest(t, hs.URL, "p", "jan", []byte(`{"a":1}`+"\n"))
	ingest(t, hs.URL, "p", "feb", []byte(`{"a":"s"}`+"\n"))

	status, body := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/p/partitions", nil)
	if status != http.StatusOK {
		t.Fatalf("partitions: status %d", status)
	}
	var doc struct {
		Partitions []struct {
			Name    string `json:"name"`
			Records int64  `json:"records"`
		} `json:"partitions"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Partitions) != 2 || doc.Partitions[0].Name != "feb" || doc.Partitions[1].Name != "jan" {
		t.Errorf("partitions = %+v, want sorted [feb jan]", doc.Partitions)
	}

	status, body = doReq(t, http.MethodGet, hs.URL+"/v1/tenants/p/partitions/jan/schema", nil)
	if status != http.StatusOK || !bytes.Contains(body, []byte("Num")) {
		t.Errorf("partition schema: status %d, body %s", status, body)
	}
	status, _ = doReq(t, http.MethodGet, hs.URL+"/v1/tenants/p/partitions/mar/schema", nil)
	if status != http.StatusNotFound {
		t.Errorf("absent partition schema: status %d, want 404", status)
	}

	status, _ = doReq(t, http.MethodDelete, hs.URL+"/v1/tenants/p/partitions/jan", nil)
	if status != http.StatusOK {
		t.Errorf("drop partition: status %d", status)
	}
	status, _ = doReq(t, http.MethodDelete, hs.URL+"/v1/tenants/p/partitions/jan", nil)
	if status != http.StatusNotFound {
		t.Errorf("re-drop partition: status %d, want 404", status)
	}
	// After dropping jan the fused schema shrinks to feb's.
	_, schema := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/p/schema", nil)
	if got := string(bytes.TrimSpace(schema)); got != "{a: Str}" {
		t.Errorf("schema after drop = %s, want {a: Str}", got)
	}
}

func TestDiffEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ingest(t, hs.URL, "d", "default", []byte(`{"id":1}`+"\n"))
	_, prior := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/d/schema?format=codec", nil)
	ingest(t, hs.URL, "d", "default", []byte(`{"id":"x","extra":true}`+"\n"))

	status, body := doReq(t, http.MethodPost, hs.URL+"/v1/tenants/d/diff", bytes.TrimSpace(prior))
	if status != http.StatusOK {
		t.Fatalf("diff: status %d: %s", status, body)
	}
	var doc struct {
		Count   int `json:"count"`
		Changes []struct {
			Path string `json:"path"`
			Kind string `json:"kind"`
		} `json:"changes"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]string, len(doc.Changes))
	for _, c := range doc.Changes {
		kinds[c.Path] = c.Kind
	}
	if kinds["./extra"] != "added" || kinds["./id"] != "type-changed" {
		t.Errorf("diff changes = %+v", doc.Changes)
	}

	// Identical prior → zero changes.
	_, now := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/d/schema?format=codec", nil)
	status, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/d/diff", bytes.TrimSpace(now))
	if status != http.StatusOK {
		t.Fatalf("diff(now): status %d", status)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Count != 0 {
		t.Errorf("self-diff count = %d, want 0", doc.Count)
	}

	status, _ = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/d/diff", []byte("{not json"))
	if status != http.StatusBadRequest {
		t.Errorf("malformed diff body: status %d, want 400", status)
	}
}

func TestValidateEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ingest(t, hs.URL, "v", "default", []byte(`{"id":1,"name":"a"}`+"\n"))

	status, body := doReq(t, http.MethodPost, hs.URL+"/v1/tenants/v/validate",
		[]byte(`{"id":2,"name":"b"}`+"\n"+`{"id":"oops","name":"c"}`+"\n"))
	if status != http.StatusOK {
		t.Fatalf("validate: status %d: %s", status, body)
	}
	var doc struct {
		Checked  int64 `json:"checked"`
		Valid    int64 `json:"valid"`
		Invalid  int64 `json:"invalid"`
		Failures []struct {
			Record int64  `json:"record"`
			Error  string `json:"error"`
		} `json:"failures"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Checked != 2 || doc.Valid != 1 || doc.Invalid != 1 {
		t.Errorf("validate = %+v", doc)
	}
	if len(doc.Failures) != 1 || doc.Failures[0].Record != 2 {
		t.Errorf("failures = %+v", doc.Failures)
	}

	// Malformed JSON mid-stream stops validation with a parse failure.
	status, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/v/validate",
		[]byte(`{"id":3,"name":"d"}`+"\n"+"{broken\n"))
	if status != http.StatusOK {
		t.Fatalf("validate(malformed): status %d", status)
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Valid != 1 || len(doc.Failures) != 1 || !strings.Contains(doc.Failures[0].Error, "") {
		t.Errorf("validate(malformed) = %+v", doc)
	}
}

// TestNestingBound pins the nesting bound of 512 at its edge over
// HTTP: an ingest of a value 512 levels deep succeeds and one 513 deep
// is a 400; validate accepts the first as a member and reports the
// second as a parse failure.
func TestNestingBound(t *testing.T) {
	nested := func(n int) []byte {
		return []byte(strings.Repeat("[", n) + "1" + strings.Repeat("]", n) + "\n")
	}
	_, hs := newTestServer(t, Config{})
	ingest(t, hs.URL, "deep", "default", nested(512))
	status, body := doReq(t, http.MethodPost, hs.URL+"/v1/tenants/deep/ingest", nested(513))
	if status != http.StatusBadRequest || !bytes.Contains(body, []byte("nesting deeper than 512")) {
		t.Errorf("ingest 513 deep: status %d: %s, want 400 and a nesting error", status, body)
	}
	var doc struct {
		Valid    int64 `json:"valid"`
		Failures []struct {
			Error string `json:"error"`
		} `json:"failures"`
	}
	status, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/deep/validate", nested(512))
	if err := json.Unmarshal(body, &doc); status != http.StatusOK || err != nil || doc.Valid != 1 {
		t.Errorf("validate 512 deep: status %d: %s, want it valid", status, body)
	}
	status, body = doReq(t, http.MethodPost, hs.URL+"/v1/tenants/deep/validate", nested(513))
	doc.Failures = nil
	if err := json.Unmarshal(body, &doc); status != http.StatusOK || err != nil ||
		len(doc.Failures) != 1 || !strings.Contains(doc.Failures[0].Error, "nesting deeper than 512") {
		t.Errorf("validate 513 deep: status %d: %s, want a nesting failure", status, body)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ingest(t, hs.URL, "s", "default", []byte(`{"a":1}`+"\n"+`{"a":2,"b":"x"}`+"\n"))

	status, snap := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/s/snapshot", nil)
	if status != http.StatusOK {
		t.Fatalf("snapshot get: status %d", status)
	}
	_, wantSchema := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/s/schema", nil)

	// Restore into a different tenant; its schema must match.
	status, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/s2/snapshot", snap)
	if status != http.StatusOK {
		t.Fatalf("snapshot put: status %d: %s", status, body)
	}
	var doc struct {
		Records int64 `json:"records"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Records != 2 {
		t.Errorf("restored records = %d, want 2", doc.Records)
	}
	_, gotSchema := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/s2/schema", nil)
	if !bytes.Equal(gotSchema, wantSchema) {
		t.Errorf("restored schema = %s, want %s", gotSchema, wantSchema)
	}

	status, _ = doReq(t, http.MethodPut, hs.URL+"/v1/tenants/s3/snapshot", []byte("{bad"))
	if status != http.StatusBadRequest {
		t.Errorf("bad snapshot: status %d, want 400", status)
	}
}

// TestSnapshotPutRejectsSketchGeometry: a restored snapshot whose
// enrichment declares a sketch geometry other than the fixed one
// (docs/ENRICHMENT.md), in its params or in one sketch state, or holds
// a sketch in the retired invalid state, is a client error, and the
// server keeps serving. The 4,001-node lattice cost 284 MiB to restore
// while the geometry was a setting.
func TestSnapshotPutRejectsSketchGeometry(t *testing.T) {
	const params = `"params":{"hll_precision":8,"bloom_bits":1024,"bloom_hashes":4}`
	state := func(monoid, st string) string {
		return `{"monoids":["` + monoid + `"],` + params + `,"root":{"states":{"` + monoid + `":` + st + `}}}`
	}
	nodes := make([]string, 4000)
	for i := range nodes {
		nodes[i] = fmt.Sprintf(`"%d":{}`, i)
	}
	regs := make([]byte, 4096)
	regs[0] = 1
	lattices := map[string]string{
		"largest-parameters": `{"monoids":["bloom","hll"],"params":{"hll_precision":16,"bloom_bits":65536,"bloom_hashes":16},` +
			`"root":{"fields":{` + strings.Join(nodes, ",") + `}}}`,
		"hll-p12":       state("hll", `{"p":12,"regs":"`+base64.StdEncoding.EncodeToString(regs)+`"}`),
		"bloom-m2048":   state("bloom", `{"m":2048,"k":4,"bits":"`+base64.StdEncoding.EncodeToString(regs[:256])+`"}`),
		"hll-invalid":   state("hll", `{"invalid":true}`),
		"bloom-invalid": state("bloom", `{"invalid":true}`),
	}
	for _, bits := range []string{"1073741824", "9223372036854775800"} {
		lattices["bloom_bits "+bits] = `{"monoids":["bloom"],"params":{"hll_precision":8,"bloom_bits":` + bits + `,"bloom_hashes":4}}`
	}

	_, hs := newTestServer(t, Config{})
	ingest(t, hs.URL, "live", "default", []byte(`{"a":1}`+"\n"))
	_, wantSchema := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/live/schema", nil)
	for name, lattice := range lattices {
		snap := `{"partitions":[{"name":"p","count":1,"schema":{"k":"num"},"enrichment":` + lattice + `}]}`
		if status, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/bomb/snapshot", []byte(snap)); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, status, body)
		}
	}
	if status, got := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/live/schema", nil); status != http.StatusOK || !bytes.Equal(got, wantSchema) {
		t.Errorf("after the rejected restores: status %d, schema %s, want %s", status, got, wantSchema)
	}
	ingest(t, hs.URL, "bomb", "default", []byte(`{"b":2}`+"\n"))
}

// TestSnapshotPutRejectsLostRecords: a restored snapshot that names a
// partition twice or carries a negative count would lose or invent
// records; it is a client error, and the server keeps serving.
func TestSnapshotPutRejectsLostRecords(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ingest(t, hs.URL, "live", "default", []byte(`{"a":1}`+"\n"))
	_, wantSchema := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/live/schema", nil)
	for name, snap := range map[string]string{
		"duplicate": `{"partitions":[{"name":"a","count":5,"schema":{"k":"num"}},{"name":"a","count":7,"schema":{"k":"str"}}]}`,
		"negative":  `{"partitions":[{"name":"a","count":-9,"schema":{"k":"num"}}]}`,
	} {
		if status, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/lost/snapshot", []byte(snap)); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, status, body)
		}
	}
	if status, got := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/live/schema", nil); status != http.StatusOK || !bytes.Equal(got, wantSchema) {
		t.Errorf("after the rejected restores: status %d, schema %s, want %s", status, got, wantSchema)
	}
	ingest(t, hs.URL, "lost", "default", []byte(`{"b":2}`+"\n"))
}

// TestSnapshotPutRejectsTrailingData: a body of two concatenated
// snapshots is a client error, not the first snapshot restored.
func TestSnapshotPutRejectsTrailingData(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	snap := `{"partitions":[{"name":"a","count":5,"schema":{"k":"num"}}]}`
	for name, body := range map[string]string{"twice": snap + snap, "garbage": snap + "x"} {
		if status, got := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/two/snapshot", []byte(body)); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, status, got)
		}
	}
	status, body := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/two/partitions", nil)
	var got struct {
		Partitions []json.RawMessage `json:"partitions"`
	}
	if err := json.Unmarshal(body, &got); status != http.StatusOK || err != nil || len(got.Partitions) != 0 {
		t.Errorf("partitions after the rejected restores: status %d, %s", status, body)
	}
}

// TestSnapshotPutRejectsRefs: a restored version 1 snapshot whose refs
// name no earlier shape or are no index, a ref outside a snapshot's
// table, an unknown version, and shapes that expand past the size cap
// or nest deeper than a document may are client errors, and the server
// keeps serving. A ref is also refused in the codec schema a diff
// posts.
func TestSnapshotPutRejectsRefs(t *testing.T) {
	const num = `{"k":"rep","elem":{"k":"num"}}`
	v1 := func(shapes []string, schema string) string {
		return `{"version":1,"shapes":[` + strings.Join(shapes, ",") +
			`],"partitions":[{"name":"p","count":1,"schema":` + schema + `}]}`
	}
	// chain is n shapes, each made of two refs to the one before
	// (expanding to 2^(i+3)-3 nodes) or wrapping it in an array.
	chain := func(n int, first, next string) []string {
		shapes := []string{first}
		for i := 1; i < n; i++ {
			shapes = append(shapes, strings.ReplaceAll(next, "REF", fmt.Sprintf(`{"ref":%d}`, i-1)))
		}
		return shapes
	}
	snaps := map[string]string{
		"forward":       v1([]string{`{"k":"rep","elem":{"ref":1}}`, num}, `{"ref":0}`),
		"self":          v1([]string{`{"k":"rep","elem":{"ref":0}}`}, `{"ref":0}`),
		"negative":      v1([]string{num}, `{"ref":-1}`),
		"non-integer":   v1([]string{num}, `{"ref":0.5}`),
		"out of range":  v1([]string{num}, `{"ref":1}`),
		"version 2":     `{"version":2,"shapes":[],"partitions":[]}`,
		"unversioned":   `{"partitions":[{"name":"p","count":1,"schema":{"ref":0}}]}`,
		"size cap":      v1(chain(24, `{"k":"record","fields":[{"key":"a","type":{"k":"num"}},{"key":"b","type":{"k":"num"}}]}`, `{"k":"record","fields":[{"key":"a","type":REF},{"key":"b","type":REF}]}`), `{"ref":23}`),
		"nesting limit": v1(chain(9997, num, `{"k":"rep","elem":REF}`), `{"ref":9996}`),
	}
	_, hs := newTestServer(t, Config{})
	ingest(t, hs.URL, "live", "default", []byte(`{"a":1}`+"\n"))
	_, wantSchema := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/live/schema", nil)
	for name, snap := range snaps {
		if status, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/refs/snapshot", []byte(snap)); status != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, status, body)
		}
	}
	if status, body := doReq(t, http.MethodPost, hs.URL+"/v1/tenants/live/diff", []byte(`{"ref":0}`)); status != http.StatusBadRequest {
		t.Errorf("diff against a ref: status %d (%s), want 400", status, body)
	}
	if status, got := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/live/schema", nil); status != http.StatusOK || !bytes.Equal(got, wantSchema) {
		t.Errorf("after the rejected restores: status %d, schema %s, want %s", status, got, wantSchema)
	}
	ingest(t, hs.URL, "refs", "default", []byte(`{"b":2}`+"\n"))
}

// TestEnrichmentEndToEnd drives the enrichment lattice through the
// whole serving surface: server-wide -enrich config (all, one monoid,
// none), the format=enrich report, the enrich=off strip, and
// snapshot save/restore carrying annotations across tenants. The
// served annotated schema must be byte-identical to offline enriched
// inference over the concatenation.
func TestEnrichmentEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, Config{Enrich: []string{"all"}})
	batches := [][]byte{
		[]byte(`{"n": 3, "when": "2024-01-05"}` + "\n" + `{"n": 1, "when": "2023-11-30"}` + "\n"),
		[]byte(`{"n": 2.5, "tags": ["a", "b"]}` + "\n"),
	}
	ingest(t, hs.URL, "e", "p0", batches[0])
	ingest(t, hs.URL, "e", "p1", batches[1])

	offline, _, err := jsi.InferNDJSON(append(append([]byte{}, batches[0]...), batches[1]...),
		jsi.Options{Enrich: []string{"all"}})
	if err != nil {
		t.Fatal(err)
	}
	wantJS, err := offline.JSONSchema()
	if err != nil {
		t.Fatal(err)
	}
	wantReport, err := offline.EnrichmentJSON()
	if err != nil {
		t.Fatal(err)
	}

	status, js := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/e/schema?format=jsonschema", nil)
	if status != http.StatusOK {
		t.Fatalf("jsonschema: status %d: %s", status, js)
	}
	if !bytes.Equal(bytes.TrimSpace(js), bytes.TrimSpace(wantJS)) {
		t.Errorf("served annotated schema differs from offline:\nserved:  %s\noffline: %s", js, wantJS)
	}

	status, rep := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/e/schema?format=enrich", nil)
	if status != http.StatusOK {
		t.Fatalf("format=enrich: status %d: %s", status, rep)
	}
	if !bytes.Equal(bytes.TrimSpace(rep), bytes.TrimSpace(wantReport)) {
		t.Errorf("served report differs from offline:\nserved:  %s\noffline: %s", rep, wantReport)
	}

	// enrich=off strips annotations from any format.
	status, plain := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/e/schema?format=jsonschema&enrich=off", nil)
	if status != http.StatusOK {
		t.Fatalf("enrich=off: status %d", status)
	}
	if bytes.Contains(plain, []byte("x-distinctValues")) || bytes.Contains(plain, []byte(`"minimum"`)) {
		t.Errorf("enrich=off left annotations in: %s", plain)
	}

	// The per-partition schema carries its own lattice.
	status, pjs := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/e/partitions/p0/schema?format=jsonschema", nil)
	if status != http.StatusOK || !bytes.Contains(pjs, []byte(`"minimum"`)) {
		t.Errorf("partition schema unannotated: status %d, body %s", status, pjs)
	}

	// Snapshot round-trip: annotations survive save + restore into a
	// fresh tenant byte for byte.
	status, snap := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/e/snapshot", nil)
	if status != http.StatusOK {
		t.Fatalf("snapshot get: status %d", status)
	}
	status, body := doReq(t, http.MethodPut, hs.URL+"/v1/tenants/e2/snapshot", snap)
	if status != http.StatusOK {
		t.Fatalf("snapshot put: status %d: %s", status, body)
	}
	_, js2 := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/e2/schema?format=jsonschema", nil)
	if !bytes.Equal(js2, js) {
		t.Errorf("restored annotated schema differs:\nrestored: %s\noriginal: %s", js2, js)
	}

	// A server configured with ranges alone annotates ranges only.
	_, hsRanges := newTestServer(t, Config{Enrich: []string{"ranges"}})
	ingest(t, hsRanges.URL, "o", "default", batches[0])
	_, js3 := doReq(t, http.MethodGet, hsRanges.URL+"/v1/tenants/o/schema?format=jsonschema", nil)
	if !bytes.Contains(js3, []byte(`"minimum"`)) {
		t.Errorf("Enrich ranges produced no range annotations: %s", js3)
	}
	if bytes.Contains(js3, []byte("x-distinctValues")) {
		t.Errorf("Enrich ranges enabled more than ranges: %s", js3)
	}

	// And a server with enrichment off annotates nothing.
	_, hsOff := newTestServer(t, Config{})
	ingest(t, hsOff.URL, "off", "default", batches[0])
	_, js4 := doReq(t, http.MethodGet, hsOff.URL+"/v1/tenants/off/schema?format=jsonschema", nil)
	if bytes.Contains(js4, []byte(`"minimum"`)) {
		t.Errorf("enrichment-off server still annotated: %s", js4)
	}
}

func TestDeleteTenant(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ingest(t, hs.URL, "del", "default", []byte(`{"a":1}`+"\n"))
	status, _ := doReq(t, http.MethodDelete, hs.URL+"/v1/tenants/del", nil)
	if status != http.StatusOK {
		t.Errorf("delete: status %d", status)
	}
	status, _ = doReq(t, http.MethodDelete, hs.URL+"/v1/tenants/del", nil)
	if status != http.StatusNotFound {
		t.Errorf("re-delete: status %d, want 404", status)
	}
	// The tenant comes back empty on next touch.
	_, schema := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/del/schema", nil)
	if got := string(bytes.TrimSpace(schema)); got != "ε" {
		t.Errorf("schema after delete = %q, want empty type", got)
	}
}

func TestListTenants(t *testing.T) {
	srv, hs := newTestServer(t, Config{MaxResidentTenants: 1})
	ingest(t, hs.URL, "one", "default", []byte(`{"a":1}`+"\n"))
	ingest(t, hs.URL, "two", "default", []byte(`{"b":1}`+"\n"))
	// Cap 1: tenant "one" has been evicted to disk by now.
	status, body := doReq(t, http.MethodGet, hs.URL+"/v1/tenants", nil)
	if status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	var doc struct {
		Tenants []tenantInfo `json:"tenants"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Tenants) != 2 || doc.Tenants[0].Name != "one" || doc.Tenants[1].Name != "two" {
		t.Fatalf("tenants = %+v, want [one two]", doc.Tenants)
	}
	if doc.Tenants[0].Resident || !doc.Tenants[1].Resident {
		t.Errorf("residency = %+v, want one evicted, two resident", doc.Tenants)
	}
	if got := srv.Metrics().Counters["schemad_evictions"]; got < 1 {
		t.Errorf("schemad_evictions = %d, want >= 1", got)
	}
}

// TestEvictionPreservesSchemas: with a residency cap of 2, ingesting
// into many tenants forces spill/reload cycles; every tenant's final
// schema must still match offline inference.
func TestEvictionPreservesSchemas(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxResidentTenants: 2})
	const tenants = 8
	var datas [tenants][]byte
	for round := 0; round < 3; round++ {
		for i := 0; i < tenants; i++ {
			rec := []byte(fmt.Sprintf(`{"tenant":%d,"round":%d,"k%d":true}`+"\n", i, round, round))
			datas[i] = append(datas[i], rec...)
			ingest(t, hs.URL, fmt.Sprintf("ev-%d", i), "default", rec)
		}
	}
	for i := 0; i < tenants; i++ {
		_, got := doReq(t, http.MethodGet, hs.URL+fmt.Sprintf("/v1/tenants/ev-%d/schema?format=codec", i), nil)
		offline, _, err := jsi.InferNDJSON(datas[i], jsi.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := offline.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bytes.TrimSpace(got), want) {
			t.Errorf("tenant ev-%d: schema %s, want %s", i, got, want)
		}
	}
}

// TestEvictionFailureIsLogged: when spilling a tenant fails (here the
// data dir has vanished), Logf hears about it once, by name.
func TestEvictionFailureIsLogged(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var logged []string
	_, hs := newTestServer(t, Config{DataDir: dir, MaxResidentTenants: 1, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logged = append(logged, fmt.Sprintf(format, args...))
	}})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	ingest(t, hs.URL, "victim", "default", []byte(`{"a":1}`+"\n"))
	ingest(t, hs.URL, "second", "default", []byte(`{"b":1}`+"\n"))
	mu.Lock()
	defer mu.Unlock()
	if len(logged) != 1 || !strings.Contains(logged[0], `"victim"`) {
		t.Errorf("Logf saw %q, want one message naming the victim", logged)
	}
}

// TestTaggedIngestLowersCollapsedUnions: two ingests on a tagged
// server whose unions collapse once fused serve the plain record
// offline inference gives, in the type and JSON Schema formats alike.
func TestTaggedIngestLowersCollapsedUnions(t *testing.T) {
	_, hs := newTestServer(t, Config{TaggedUnions: true})
	var all []byte
	for b := 0; b < 2; b++ {
		var batch []byte
		for i := 0; i < 10; i++ {
			batch = fmt.Appendf(batch, `{"type": "t%d", "x": %d}`+"\n", 10*b+i, i)
		}
		all = append(all, batch...)
		ingest(t, hs.URL, "tg", fmt.Sprintf("p%d", b), batch)
	}
	offline, _, err := jsi.InferNDJSON(all, jsi.Options{TaggedUnions: true})
	if err != nil {
		t.Fatal(err)
	}
	_, typ := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/tg/schema?format=type", nil)
	if got, want := string(bytes.TrimSpace(typ)), offline.String(); got != want {
		t.Errorf("served type %s, want %s", got, want)
	}
	want, err := offline.JSONSchema()
	if err != nil {
		t.Fatal(err)
	}
	if _, got := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/tg/schema?format=jsonschema", nil); !bytes.Equal(bytes.TrimSpace(got), bytes.TrimSpace(want)) {
		t.Errorf("served JSON Schema differs from offline:\nserved:  %s\noffline: %s", got, want)
	}
}

// TestSnapshotSurvivesRestart: SaveAll + a fresh Server over the same
// data dir restores every tenant.
func TestSnapshotSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	srv, hs := newTestServer(t, Config{DataDir: dir})
	ingest(t, hs.URL, "persist", "default", []byte(`{"a":1}`+"\n"))
	_, want := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/persist/schema", nil)
	if err := srv.SaveAll(); err != nil {
		t.Fatal(err)
	}
	hs.Close()

	_, hs2 := newTestServer(t, Config{DataDir: dir})
	_, got := doReq(t, http.MethodGet, hs2.URL+"/v1/tenants/persist/schema", nil)
	if !bytes.Equal(got, want) {
		t.Errorf("schema after restart = %s, want %s", got, want)
	}
}

func TestIngestQuarantine(t *testing.T) {
	// A body of three default (256 KiB) chunks, so the one malformed
	// record poisons a single chunk rather than the whole body.
	_, hs := newTestServer(t, Config{})
	var buf bytes.Buffer
	const n = 60000
	for i := 0; i < n; i++ {
		if i == n/2 {
			buf.WriteString("{broken\n")
			continue
		}
		fmt.Fprintf(&buf, `{"id": %d}`+"\n", i)
	}
	if buf.Len() <= 2*256<<10 {
		t.Fatalf("body is %d bytes, want more than two default chunks", buf.Len())
	}
	// Default policy: the malformed chunk fails the request and leaves
	// the repository untouched.
	status, _ := doReq(t, http.MethodPost, hs.URL+"/v1/tenants/q/ingest", buf.Bytes())
	if status != http.StatusBadRequest {
		t.Fatalf("malformed ingest: status %d, want 400", status)
	}
	_, schema := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/q/schema", nil)
	if got := string(bytes.TrimSpace(schema)); got != "ε" {
		t.Errorf("schema after failed ingest = %q, want empty", got)
	}

	// A server configured with OnErrorSkip quarantines the chunk and
	// commits the rest.
	_, hsSkip := newTestServer(t, Config{OnErrorSkip: true})
	status, body := doReq(t, http.MethodPost, hsSkip.URL+"/v1/tenants/q/ingest", buf.Bytes())
	if status != http.StatusOK {
		t.Fatalf("skip ingest: status %d: %s", status, body)
	}
	var doc ingestResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.QuarantinedChunks != 1 || doc.Records == 0 {
		t.Errorf("quarantined_chunks = %d, records = %d: want one chunk dropped and the rest committed", doc.QuarantinedChunks, doc.Records)
	}
	_, schema = doReq(t, http.MethodGet, hsSkip.URL+"/v1/tenants/q/schema", nil)
	if got := string(bytes.TrimSpace(schema)); got != "{id: Num}" {
		t.Errorf("schema after skip ingest = %q, want {id: Num}", got)
	}
}

// TestIngestRefusesPolicyParams: the inference policy is the server's,
// so ingest refuses every query parameter but partition with a 400
// naming it, and commits nothing, even on a body that would ingest.
func TestIngestRefusesPolicyParams(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ingest(t, hs.URL, "r", "p", []byte(`{"type":"a","n":1}`+"\n"))
	_, before := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/r/snapshot", nil)
	body := []byte(`{"type":"b","s":"x"}` + "\n")
	for _, c := range []struct{ query, param string }{
		{"tagged=true", "tagged"},
		{"tagged=false", "tagged"},
		{"union_keys=type,kind", "union_keys"},
		{"enrich=all", "enrich"},
		{"enrich=off", "enrich"},
		{"on_error=skip", "on_error"},
		{"on_error=fail", "on_error"},
		{"partiton=p", "partiton"},
		{"partition=p&tagged=true", "tagged"},
		{"tagged=true&enrich=all", "enrich"},
		{"=x", ""},
	} {
		status, reply := doReq(t, http.MethodPost, hs.URL+"/v1/tenants/r/ingest?"+c.query, body)
		if status != http.StatusBadRequest || !bytes.Contains(reply, []byte(fmt.Sprintf(`parameter \"%s\"`, c.param))) {
			t.Errorf("ingest?%s: status %d, body %s; want 400 naming %q", c.query, status, reply, c.param)
		}
		if _, after := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/r/snapshot", nil); !bytes.Equal(after, before) {
			t.Errorf("ingest?%s changed the snapshot:\nbefore %s\nafter  %s", c.query, before, after)
		}
	}
	if status, reply := doReq(t, http.MethodPost, hs.URL+"/v1/tenants/r/ingest?partition=%zz", body); status != http.StatusBadRequest {
		t.Errorf("ingest with a malformed query: status %d, body %s; want 400", status, reply)
	}
}

func TestIngestBodyCap(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxBodyBytes: 1 << 10})
	big := bytes.Repeat([]byte(`{"pad":"xxxxxxxxxxxxxxxx"}`+"\n"), 200)
	status, body := doReq(t, http.MethodPost, hs.URL+"/v1/tenants/cap/ingest", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest: status %d: %s", status, body)
	}
	_, schema := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/cap/schema", nil)
	if got := string(bytes.TrimSpace(schema)); got != "ε" {
		t.Errorf("schema after rejected ingest = %q, want empty", got)
	}
}

// TestBodyCapEveryEndpoint pins that every endpoint reading a body
// answers 413 once the body passes MaxBodyBytes, whether the cut lands
// between records, inside a string the lexer then calls unterminated,
// or in a document read whole.
func TestBodyCapEveryEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxBodyBytes: 1 << 10})
	records := bytes.Repeat([]byte(`{"pad":"xxxxxxxxxxxxxxxx"}`+"\n"), 200)
	longString := []byte(`{"s":"` + strings.Repeat("x", 4<<10) + `"}` + "\n")
	for _, tc := range []struct {
		name, method, path string
		body               []byte
	}{
		{"ingest", http.MethodPost, "ingest", records},
		{"ingest-string", http.MethodPost, "ingest", longString},
		{"validate", http.MethodPost, "validate", records},
		{"validate-string", http.MethodPost, "validate", longString},
		{"diff", http.MethodPost, "diff", longString},
		{"snapshot", http.MethodPut, "snapshot", longString},
	} {
		status, body := doReq(t, tc.method, hs.URL+"/v1/tenants/cap/"+tc.path, tc.body)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body: status %d: %s", tc.name, status, body)
		}
	}
}

// slowBody feeds records then blocks until its context dies,
// simulating a client that stalls mid-upload.
type slowBody struct {
	data []byte
	ctx  context.Context
}

func (b *slowBody) Read(p []byte) (int, error) {
	if len(b.data) > 0 {
		n := copy(p, b.data)
		b.data = b.data[n:]
		return n, nil
	}
	<-b.ctx.Done()
	return 0, b.ctx.Err()
}

// TestIngestCancellationMidStream cancels the request context while
// the body is still streaming; the server must abort the pipeline and
// commit nothing.
func TestIngestCancellationMidStream(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	body := &slowBody{data: bytes.Repeat([]byte(`{"a":1}`+"\n"), 100), ctx: ctx}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		hs.URL+"/v1/tenants/cancel/ingest", body)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			err = resp.Body.Close()
		}
		done <- err
	}()
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled ingest returned a response")
	}
	_, schema := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/cancel/schema", nil)
	if got := string(bytes.TrimSpace(schema)); got != "ε" {
		t.Errorf("schema after cancelled ingest = %q, want empty", got)
	}
}

func TestTenantNameValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	long := strings.Repeat("x", maxTenantNameLen+1)
	status, _ := doReq(t, http.MethodGet, hs.URL+"/v1/tenants/"+long+"/schema", nil)
	if status != http.StatusBadRequest {
		t.Errorf("overlong tenant name: status %d, want 400", status)
	}
}

// TestConcurrentMixedTraffic hammers one server with ingests, schema
// reads, validations, and snapshots across a small tenant set under a
// tight residency cap — the -race stress for the serving layer.
func TestConcurrentMixedTraffic(t *testing.T) {
	_, hs := newTestServer(t, Config{MaxResidentTenants: 2})
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("mix-%d", w%3)
			for i := 0; i < 15; i++ {
				rec := []byte(fmt.Sprintf(`{"w":%d,"i":%d}`+"\n", w, i))
				switch i % 4 {
				case 0, 1:
					status, body := doReq(t, http.MethodPost,
						fmt.Sprintf("%s/v1/tenants/%s/ingest?partition=p%d", hs.URL, tenant, w%2), rec)
					if status != http.StatusOK {
						t.Errorf("ingest: status %d: %s", status, body)
					}
				case 2:
					doReq(t, http.MethodGet, hs.URL+"/v1/tenants/"+tenant+"/schema", nil)
				case 3:
					doReq(t, http.MethodPost, hs.URL+"/v1/tenants/"+tenant+"/validate", rec)
				}
			}
		}(w)
	}
	wg.Wait()
	// Every record carried the same shape; all three tenants must agree.
	want := "{i: Num, w: Num}"
	for i := 0; i < 3; i++ {
		_, schema := doReq(t, http.MethodGet, fmt.Sprintf("%s/v1/tenants/mix-%d/schema", hs.URL, i), nil)
		if got := string(bytes.TrimSpace(schema)); got != want {
			t.Errorf("tenant mix-%d schema = %q, want %q", i, got, want)
		}
	}
}

// TestForeignFilesIgnored: stray files in the data dir don't appear
// as tenants.
func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(dir+"/README.txt", []byte("not a snapshot"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/t-zz.json", []byte("bad hex"), 0o600); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{DataDir: dir})
	status, body := doReq(t, http.MethodGet, hs.URL+"/v1/tenants", nil)
	if status != http.StatusOK {
		t.Fatalf("list: status %d", status)
	}
	var doc struct {
		Tenants []tenantInfo `json:"tenants"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Tenants) != 0 {
		t.Errorf("tenants = %+v, want none", doc.Tenants)
	}
}

func TestNewRequiresDataDir(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted empty DataDir")
	}
}

// TestNewRejectsInvalidPolicy: a Config whose inference options every
// ingest would reject fails New, before New creates the data dir,
// instead of answering every ingest 400.
func TestNewRejectsInvalidPolicy(t *testing.T) {
	for name, cfg := range map[string]Config{
		"empty union key":  {TaggedUnions: true, UnionKeys: []string{"type", "", "kind"}},
		"negative Retries": {Retries: -1},
		"unknown monoid":   {Enrich: []string{"ranges", "bogus"}},
	} {
		cfg.DataDir = filepath.Join(t.TempDir(), "data")
		if _, err := New(cfg); !errors.Is(err, jsi.ErrInvalidOptions) {
			t.Errorf("%s: New returned %v, want an error wrapping ErrInvalidOptions", name, err)
		}
		if _, err := os.Stat(cfg.DataDir); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("%s: New created the data dir (stat: %v)", name, err)
		}
	}
}
