package serving

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	jsi "repro"
)

// FuzzServingIngest posts an arbitrary body with an arbitrary raw query
// string to the ingest endpoint of a server with a small body cap. The
// server must never panic or answer 5xx; a 200 must report a
// total_records equal to the tenant's previous count plus its records;
// and any other status must leave the tenant's snapshot bytes as they
// were, because ingest is all-or-nothing. The seeds that set a policy
// parameter (on_error, tagged, union_keys, enrich) exercise the
// refusal of every parameter but partition.
func FuzzServingIngest(f *testing.F) {
	const maxBody = 2 << 10
	records := `{"type":"a","n":1}` + "\n" + `{"type":"b","s":"x"}` + "\n"
	for _, seed := range []struct{ query, body string }{
		{"", records},
		{"partition=p", records},
		{"on_error=skip", records + "{broken\n"},
		{"on_error=fail", "{broken\n"},
		{"on_error=nope", records},
		{"tagged=true&union_keys=type,kind", records},
		{"tagged=true&union_keys=,", records},
		{"tagged=maybe", records},
		{"union_keys=type", records},
		{"enrich=all", records},
		{"enrich=bogus", records},
		{"partition=%zz", records},
		{"", strings.Repeat(`{"k":"`+strings.Repeat("v", 60)+`"}`+"\n", maxBody/60)},
		{"", `[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[`},
	} {
		f.Add(seed.query, []byte(seed.body))
	}
	srv, err := New(Config{DataDir: f.TempDir(), MaxBodyBytes: maxBody, IngestWorkers: 1})
	if err != nil {
		f.Fatal(err)
	}
	const tenant = "/v1/tenants/fuzz"
	serve := func(t *testing.T, method, path, query string, body []byte) *httptest.ResponseRecorder {
		t.Helper()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.URL.RawQuery = query
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code >= 500 {
			t.Fatalf("%s %s?%s: status %d: %s", method, path, query, w.Code, w.Body)
		}
		return w
	}
	snapshot := func(t *testing.T) ([]byte, int64) {
		t.Helper()
		w := serve(t, http.MethodGet, tenant+"/snapshot", "", nil)
		if w.Code != http.StatusOK {
			t.Fatalf("snapshot: status %d: %s", w.Code, w.Body)
		}
		snap := w.Body.Bytes()
		repo, err := jsi.LoadRepository(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("snapshot does not load: %v", err)
		}
		return snap, repo.Count()
	}

	f.Fuzz(func(t *testing.T, query string, body []byte) {
		before, count := snapshot(t)
		if len(before) > 64<<10 {
			// Keep each execution cheap: start the tenant over once its
			// accumulated schema grows large.
			serve(t, http.MethodDelete, tenant, "", nil)
			before, count = snapshot(t)
		}
		w := serve(t, http.MethodPost, tenant+"/ingest", query, body)
		after, total := snapshot(t)
		if w.Code != http.StatusOK {
			if !bytes.Equal(before, after) {
				t.Fatalf("status %d changed the snapshot:\nbefore %s\nafter  %s", w.Code, before, after)
			}
			return
		}
		var resp ingestResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 body %q: %v", w.Body, err)
		}
		if resp.TotalRecords != count+resp.Records || total != resp.TotalRecords {
			t.Fatalf("total_records %d, want %d + %d; snapshot count %d", resp.TotalRecords, count, resp.Records, total)
		}
	})
}
