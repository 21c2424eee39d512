// Package serving implements the multi-tenant schema service behind
// cmd/schemad. Each tenant owns an isolated incremental repository
// (its own lock and partitions); HTTP handlers stream
// NDJSON request bodies through the internal/pipeline engine via
// jsoninference.FromChunkedReader, so ingestion gets the same
// parallel map phase, retry budget, and quarantine policy as the
// offline CLI — and, by fusion's associativity and commutativity,
// the same schemas, byte for byte.
//
// Memory is bounded on two axes: request bodies are capped with
// http.MaxBytesReader, and at most MaxResidentTenants repositories
// stay in memory — idle tenants are spilled to disk snapshots and
// reloaded transparently (see tenantSet).
//
// The package is independent of any particular listener: Server
// implements http.Handler, so cmd/schemad, cmd/schemadload, and
// httptest all mount the same routes.
package serving

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"

	jsi "repro"
	"repro/internal/enrich"
	"repro/internal/jsontext"
	"repro/internal/obs"
	"repro/internal/types"
)

// Config parameterises a Server. The zero value of every field except
// DataDir is usable; zeros become the documented defaults.
type Config struct {
	// DataDir holds tenant snapshots (eviction spill and shutdown
	// saves). Required; created with 0o700 if absent.
	DataDir string

	// MaxResidentTenants caps in-memory repositories; beyond it the
	// least-recently-used idle tenant is snapshotted to DataDir and
	// dropped. Zero means 1024.
	MaxResidentTenants int

	// MaxBodyBytes caps every request body (ingest, validate, diff,
	// snapshot restore). Zero means 64 MiB.
	MaxBodyBytes int64

	// IngestWorkers is the map-phase parallelism of each ingest
	// request's pipeline. Zero means 2 — modest per request, because
	// concurrency across tenants is the service's main axis.
	IngestWorkers int

	// Retries is the per-chunk retry budget applied to every ingest.
	Retries int

	// OnErrorSkip makes quarantine-and-continue the default policy for
	// malformed chunks; requests can override it per call with the
	// on_error query parameter.
	OnErrorSkip bool

	// Enrich names the enrichment monoids (docs/ENRICHMENT.md) computed
	// on every ingest: "ranges", "hll", ..., or "all". Empty disables
	// enrichment. Requests can override it per call with the enrich
	// query parameter (a comma list, "all", or "off").
	Enrich []string

	// TaggedUnions enables tagged-union inference (docs/UNIONS.md) on
	// every ingest: discriminated records fuse into one variant per
	// observed tag instead of one blurred record. Requests can override
	// it per call with the tagged query parameter ("true" or "false").
	TaggedUnions bool

	// UnionKeys overrides the discriminator field names probed by
	// tagged-union inference, in priority order; empty means the library
	// default ("type", "event", "kind"). Requests can override it per
	// call with the union_keys query parameter (a comma list).
	UnionKeys []string

	// Logf receives operational messages: a failed snapshot while
	// evicting a tenant, naming the tenant. Nil discards them.
	Logf func(format string, args ...any)
}

// A Server is the schemad HTTP API: an http.Handler exposing
// per-tenant ingest, schema retrieval, diff, validation, and
// snapshot endpoints over a bounded set of resident repositories.
type Server struct {
	cfg     Config
	reg     *obs.Registry
	tenants *tenantSet
	mux     *http.ServeMux
}

// New builds a Server from cfg, creating cfg.DataDir if needed.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, errors.New("serving: Config.DataDir is required")
	}
	if err := os.MkdirAll(cfg.DataDir, 0o700); err != nil {
		return nil, fmt.Errorf("serving: %w", err)
	}
	if cfg.MaxResidentTenants <= 0 {
		cfg.MaxResidentTenants = 1024
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	if cfg.IngestWorkers <= 0 {
		cfg.IngestWorkers = 2
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if len(cfg.Enrich) > 0 {
		if _, err := enrich.ParseSet(cfg.Enrich); err != nil {
			return nil, fmt.Errorf("serving: %w", err)
		}
	}
	s := &Server{cfg: cfg, reg: obs.NewRegistry()}
	s.tenants = newTenantSet(cfg.DataDir, cfg.MaxResidentTenants, s.reg, cfg.Logf)
	s.mux = http.NewServeMux()
	s.routes()
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/tenants", s.handleListTenants)
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/ingest", s.tenantHandler(s.handleIngest))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/schema", s.tenantHandler(s.handleSchema))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/partitions", s.tenantHandler(s.handlePartitions))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/partitions/{part}/schema", s.tenantHandler(s.handlePartitionSchema))
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}/partitions/{part}", s.tenantHandler(s.handleDropPartition))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/diff", s.tenantHandler(s.handleDiff))
	s.mux.HandleFunc("POST /v1/tenants/{tenant}/validate", s.tenantHandler(s.handleValidate))
	s.mux.HandleFunc("GET /v1/tenants/{tenant}/snapshot", s.tenantHandler(s.handleSnapshotGet))
	s.mux.HandleFunc("PUT /v1/tenants/{tenant}/snapshot", s.tenantHandler(s.handleSnapshotPut))
	s.mux.HandleFunc("DELETE /v1/tenants/{tenant}", s.handleDeleteTenant)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics snapshots the server's counters and gauges.
func (s *Server) Metrics() obs.Metrics { return s.reg.Snapshot() }

// SaveAll snapshots every resident tenant to the data directory —
// the graceful-shutdown hook, called after the listener has drained.
func (s *Server) SaveAll() error { return s.tenants.saveAll() }

// --- plumbing ---------------------------------------------------------

// writeJSON marshals v and sends it with the given status. Marshal
// failures (a server bug, not client error) degrade to a 500.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		s.reg.Add("schemad_errors", 1)
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

// writeError sends a JSON error document.
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.reg.Add("schemad_errors", 1)
	s.writeJSON(w, status, map[string]string{"error": err.Error()})
}

// tenantHandler adapts a tenant-scoped handler: it validates the
// {tenant} path value, pins the tenant for the duration of the
// request (loading its snapshot or creating it as needed), and
// releases it afterwards.
func (s *Server) tenantHandler(fn func(w http.ResponseWriter, r *http.Request, t *tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := s.tenants.acquire(r.PathValue("tenant"))
		if err != nil {
			s.writeError(w, http.StatusBadRequest, err)
			return
		}
		defer s.tenants.release(t)
		fn(w, r, t)
	}
}

// cappedBody is a request body capped at Config.MaxBodyBytes that
// remembers hitting the cap. Decoders do not reliably pass the
// *http.MaxBytesError through (the lexer reports a string cut by the cap
// as unterminated), so handlers ask the body instead of the error.
type cappedBody struct {
	io.ReadCloser
	hit bool
}

func (b *cappedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		b.hit = true
	}
	return n, err
}

// body returns the request body capped at the configured limit.
func (s *Server) body(w http.ResponseWriter, r *http.Request) *cappedBody {
	return &cappedBody{ReadCloser: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
}

// writeBodyError answers a request whose body failed to decode: 413
// when the body hit the cap, whatever the decoder made of the cut, and
// 400 with err otherwise.
func (s *Server) writeBodyError(w http.ResponseWriter, body *cappedBody, err error) {
	if body.hit {
		s.writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	s.writeError(w, http.StatusBadRequest, err)
}

// ingestOptions builds the pipeline options for one ingest request,
// applying any per-request on_error override.
func (s *Server) ingestOptions(r *http.Request) (jsi.Options, error) {
	opts := jsi.Options{
		Workers: s.cfg.IngestWorkers,
		Retries: s.cfg.Retries,
	}
	if s.cfg.OnErrorSkip {
		opts.OnError = jsi.OnErrorSkip
	}
	switch v := r.URL.Query().Get("on_error"); v {
	case "":
	case "fail":
		opts.OnError = jsi.OnErrorFail
	case "skip":
		opts.OnError = jsi.OnErrorSkip
	default:
		return opts, fmt.Errorf("unknown on_error %q (want fail or skip)", v)
	}
	opts.Enrich = s.cfg.Enrich
	if r.URL.Query().Has("enrich") {
		switch v := r.URL.Query().Get("enrich"); v {
		case "off", "none", "0", "":
			opts.Enrich = nil
		default:
			opts.Enrich = []string{v}
		}
	}
	opts.TaggedUnions = s.cfg.TaggedUnions
	opts.UnionKeys = s.cfg.UnionKeys
	if r.URL.Query().Has("tagged") {
		on, err := strconv.ParseBool(r.URL.Query().Get("tagged"))
		if err != nil {
			return opts, fmt.Errorf("invalid tagged %q (want true or false)", r.URL.Query().Get("tagged"))
		}
		opts.TaggedUnions = on
	}
	if v := r.URL.Query().Get("union_keys"); v != "" {
		if !opts.TaggedUnions {
			return opts, errors.New("union_keys requires tagged union inference (tagged=true or Config.TaggedUnions)")
		}
		opts.UnionKeys = strings.Split(v, ",")
	}
	return opts, nil
}

// --- handlers ---------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"heap_bytes": ms.HeapAlloc,
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

func (s *Server) handleListTenants(w http.ResponseWriter, _ *http.Request) {
	infos, err := s.tenants.list()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"tenants": infos})
}

// ingestResponse reports one completed ingest request.
type ingestResponse struct {
	Tenant            string `json:"tenant"`
	Partition         string `json:"partition"`
	Records           int64  `json:"records"`
	Bytes             int64  `json:"bytes"`
	Retries           int64  `json:"retries,omitempty"`
	QuarantinedChunks int64  `json:"quarantined_chunks,omitempty"`
	SchemaSize        int    `json:"schema_size"`
	TotalRecords      int64  `json:"total_records"`
}

// handleIngest streams the request body (NDJSON) through the
// inference pipeline and fuses the result into the tenant's
// partition. The operation is all-or-nothing per request: a body
// that fails (under the effective error policy) leaves the
// repository untouched.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, t *tenant) {
	part := r.URL.Query().Get("partition")
	if part == "" {
		part = "default"
	}
	opts, err := s.ingestOptions(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	body := s.body(w, r)
	schema, stats, err := jsi.Infer(r.Context(), jsi.FromChunkedReader(body), opts)
	if err != nil {
		if !body.hit && r.Context().Err() != nil {
			// The client went away mid-stream; nothing was committed
			// and nobody is reading the response.
			s.reg.Add("schemad_cancelled_ingests", 1)
			err = r.Context().Err()
		}
		s.writeBodyError(w, body, err)
		return
	}
	repo := t.repo.Load()
	repo.Append(part, schema, stats.Records)
	s.reg.Add("schemad_ingest_requests", 1)
	s.reg.Add("schemad_ingest_records", stats.Records)
	s.reg.Add("schemad_ingest_bytes", stats.Bytes)
	s.reg.Add("schemad_quarantined_chunks", int64(stats.QuarantinedChunks))
	s.reg.Observe("schemad_ingest_batch_records", stats.Records)
	s.writeJSON(w, http.StatusOK, ingestResponse{
		Tenant:            t.name,
		Partition:         part,
		Records:           stats.Records,
		Bytes:             stats.Bytes,
		Retries:           int64(stats.Retries),
		QuarantinedChunks: int64(stats.QuarantinedChunks),
		SchemaSize:        schema.Size(),
		TotalRecords:      repo.Count(),
	})
}

// renderSchema writes a schema in the requested format: type
// (default), indent, jsonschema, codec, or enrich (the per-path
// enrichment report). enrich=0 strips enrichment annotations first, so
// clients can fetch the plain JSON Schema from an enriched tenant.
func (s *Server) renderSchema(w http.ResponseWriter, r *http.Request, schema *jsi.Schema) {
	switch v := r.URL.Query().Get("enrich"); v {
	case "off", "none", "0":
		schema = schema.WithoutEnrichment()
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "type":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, schema.String())
	case "indent":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, schema.Indent())
	case "jsonschema":
		out, err := schema.JSONSchema()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeDocument(w, out)
	case "codec":
		out, err := schema.MarshalJSON()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeDocument(w, out)
	case "enrich":
		out, err := schema.EnrichmentJSON()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeDocument(w, out)
	default:
		s.writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown format %q (want type, indent, jsonschema, codec, or enrich)", format))
	}
}

// writeDocument sends a rendered JSON document and a trailing newline
// as two writes, so the exactly sized document is never reallocated to
// append the newline.
func writeDocument(w http.ResponseWriter, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
	fmt.Fprintln(w)
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request, t *tenant) {
	s.renderSchema(w, r, t.repo.Load().Schema())
}

// partitionInfo is one row of the partition listing.
type partitionInfo struct {
	Name       string `json:"name"`
	Records    int64  `json:"records"`
	SchemaSize int    `json:"schema_size"`
}

func (s *Server) handlePartitions(w http.ResponseWriter, _ *http.Request, t *tenant) {
	repo := t.repo.Load()
	names := repo.Partitions()
	infos := make([]partitionInfo, 0, len(names))
	for _, name := range names {
		info := partitionInfo{Name: name}
		if schema, ok := repo.PartitionSchema(name); ok {
			info.SchemaSize = schema.Size()
		}
		if n, ok := repo.PartitionCount(name); ok {
			info.Records = n
		}
		infos = append(infos, info)
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"tenant": t.name, "partitions": infos})
}

func (s *Server) handlePartitionSchema(w http.ResponseWriter, r *http.Request, t *tenant) {
	schema, ok := t.repo.Load().PartitionSchema(r.PathValue("part"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no partition %q", r.PathValue("part")))
		return
	}
	s.renderSchema(w, r, schema)
}

func (s *Server) handleDropPartition(w http.ResponseWriter, r *http.Request, t *tenant) {
	part := r.PathValue("part")
	if !t.repo.Load().DropPartition(part) {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no partition %q", part))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"tenant": t.name, "dropped": part})
}

// handleDiff compares the tenant's live schema against a prior
// version posted as the request body (codec JSON, as produced by the
// snapshot of GET schema?format=codec).
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request, t *tenant) {
	body := s.body(w, r)
	data, err := io.ReadAll(body)
	if err != nil {
		s.writeBodyError(w, body, err)
		return
	}
	prior, err := jsi.UnmarshalSchemaJSON(data)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding prior schema: %w", err))
		return
	}
	changes := t.repo.Load().Schema().DiffFrom(prior)
	if changes == nil {
		changes = []jsi.SchemaChange{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"tenant":  t.name,
		"count":   len(changes),
		"changes": changes,
	})
}

// validateFailure reports one non-conforming or malformed record.
type validateFailure struct {
	Record int64  `json:"record"`
	Error  string `json:"error"`
}

// maxValidateFailures caps the failure list in a validate response so
// a wholly mismatched body cannot balloon the reply.
const maxValidateFailures = 20

// handleValidate checks each NDJSON record of the body for
// conformance against the tenant's current fused schema.
func (s *Server) handleValidate(w http.ResponseWriter, r *http.Request, t *tenant) {
	codec, err := t.repo.Load().Schema().MarshalJSON()
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	target, err := types.UnmarshalJSON(codec)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	var (
		checked  int64
		valid    int64
		failures []validateFailure
	)
	ctx := r.Context()
	body := s.body(w, r)
	p := jsontext.NewParser(body)
	for {
		if ctx.Err() != nil {
			s.writeError(w, http.StatusBadRequest, ctx.Err())
			return
		}
		v, err := p.Next()
		if err == io.EOF {
			break
		}
		checked++
		switch {
		case err != nil:
			if body.hit {
				s.writeBodyError(w, body, err)
				return
			}
			if len(failures) < maxValidateFailures {
				failures = append(failures, validateFailure{Record: checked, Error: err.Error()})
			}
			// A parse error poisons the rest of the stream; stop here
			// rather than report cascading failures.
			s.writeJSON(w, http.StatusOK, map[string]any{
				"tenant": t.name, "checked": checked, "valid": valid,
				"invalid": checked - valid, "failures": failures,
			})
			return
		case types.Member(v, target):
			valid++
		default:
			if len(failures) < maxValidateFailures {
				failures = append(failures, validateFailure{Record: checked, Error: "does not conform to schema"})
			}
		}
	}
	if failures == nil {
		failures = []validateFailure{}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"tenant": t.name, "checked": checked, "valid": valid,
		"invalid": checked - valid, "failures": failures,
	})
}

// handleSnapshotGet serialises the tenant's repository in the
// Save/Load wire format. Buffering before writing keeps failures as
// proper 500s instead of torn responses.
func (s *Server) handleSnapshotGet(w http.ResponseWriter, _ *http.Request, t *tenant) {
	var buf bytes.Buffer
	if err := t.repo.Load().Save(&buf); err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}

// handleSnapshotPut replaces the tenant's repository with one decoded
// from the request body — the restore half of snapshot/restore.
func (s *Server) handleSnapshotPut(w http.ResponseWriter, r *http.Request, t *tenant) {
	body := s.body(w, r)
	repo, err := jsi.LoadRepository(body)
	if err != nil {
		s.writeBodyError(w, body, fmt.Errorf("decoding snapshot: %w", err))
		return
	}
	t.repo.Store(repo)
	s.reg.Add("schemad_restores", 1)
	s.writeJSON(w, http.StatusOK, map[string]any{
		"tenant":  t.name,
		"records": repo.Count(),
	})
}

func (s *Server) handleDeleteTenant(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	existed, err := s.tenants.remove(name)
	switch {
	case err != nil && existed:
		s.writeError(w, http.StatusInternalServerError, err)
	case err != nil:
		s.writeError(w, http.StatusBadRequest, err)
	case !existed:
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no tenant %q", name))
	default:
		s.writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
	}
}
