package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	jsi "repro"
	"repro/internal/dataset"
	"repro/internal/serving"
)

// Files of the serve workload's input dir.
const (
	snapshotDir = "snap"
	poolFile    = "tenant-%02d.ndjson"
	codecFile   = "tenant-%02d.codec.json"
	unseenFile  = "unseen.ndjson"
)

func tenantName(i int) string { return fmt.Sprintf("tenant-%02d", i) }

func partitionName(batch, partitions int) string { return fmt.Sprintf("p%d", batch%partitions) }

// generateServe writes each tenant's batch pool (seed+i for tenant i),
// the offline oracle of its schema, a snapshot dir from which a server
// restores every tenant with its whole pool already ingested, and the
// unseen batches (seed+tenants) that some ingests carry instead of a
// pool batch. `workers` goroutines take the jobs in turn, the unseen
// batches, the largest, first.
func generateServe(ctx context.Context, w workload, dir string, seed int64, sc scale) error {
	snap, err := serving.New(serving.Config{DataDir: filepath.Join(dir, snapshotDir)})
	if err != nil {
		return err
	}
	var next atomic.Int64 // the next job: -1 is the unseen batches, i ≥ 0 tenant i
	next.Store(-1)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for errs[k] == nil {
				select {
				case <-ctx.Done():
					return
				default:
				}
				i := int(next.Add(1) - 1)
				switch {
				case i >= sc.tenants:
					return
				case i < 0:
					errs[k] = generateUnseen(w, dir, seed+int64(sc.tenants), sc)
				default:
					errs[k] = generateTenant(ctx, w, dir, snap, i, seed+int64(i), sc)
				}
			}
		}(k)
	}
	wg.Wait()
	if err := errors.Join(append(errs, ctx.Err())...); err != nil {
		return err
	}
	return snap.SaveAll()
}

// generateTenant writes tenant i's files and restores its repository
// into snap.
func generateTenant(ctx context.Context, w workload, dir string, snap *serving.Server, i int, seed int64, sc scale) error {
	g, err := dataset.New(w.dataset)
	if err != nil {
		return err
	}
	pool := dataset.NDJSON(g, sc.batches*sc.batchRecords, seed)
	repo := jsi.NewRepository()
	for b, batch := range splitRecords(pool, sc.batchRecords) {
		s, st, err := jsi.Infer(ctx, jsi.FromBytes(batch), jsi.Options{Workers: 1})
		if err != nil {
			return err
		}
		repo.Append(partitionName(b, sc.partitions), s, st.Records)
	}
	var saved bytes.Buffer
	if err := repo.Save(&saved); err != nil {
		return err
	}
	rec := httptest.NewRecorder()
	snap.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/tenants/"+tenantName(i)+"/snapshot", &saved))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("restoring %s: status %d: %s", tenantName(i), rec.Code, rec.Body.Bytes())
	}

	oracle, _, err := jsi.Infer(ctx, jsi.FromBytes(pool), jsi.Options{Workers: 1})
	if err != nil {
		return err
	}
	codec, err := oracle.MarshalJSON()
	if err != nil {
		return err
	}
	if err := writeFile(filepath.Join(dir, fmt.Sprintf(poolFile, i)), pool); err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, fmt.Sprintf(codecFile, i)), codec)
}

// generateUnseen writes the batches no tenant holds at the start.
func generateUnseen(w workload, dir string, seed int64, sc scale) error {
	g, err := dataset.New(w.dataset)
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, unseenFile), dataset.NDJSON(g, sc.unseenBatches*sc.batchRecords, seed))
}

// server is an in-process serving.Server on a loopback listener.
type server struct {
	hs   *http.Server
	base string
	done chan struct{}
}

// startServer starts a server over dataDir. With tr set, every request
// that names a client span in its spanHeader gets a server-side span
// under it.
func startServer(dataDir string, tr *tracer) (*server, error) {
	srv, err := serving.New(serving.Config{DataDir: dataDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = tracedHandler{h: srv, tr: tr}
	}
	s := &server{hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		if err := s.hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bench: serve:", err)
		}
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to return.
func (s *server) close() error {
	err := s.hs.Close()
	<-s.done
	return err
}

// spanHeader carries the id of the client span a request belongs to.
const spanHeader = "X-Bench-Span"

// tracedHandler opens a span on the serving goroutine for each request
// that carries a client span id, as the child of that span.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if parent, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
		id := t.tr.beginRemote("serving.handler", parent)
		defer t.tr.endRemote(id)
	}
	t.h.ServeHTTP(w, r)
}

// A client holds one keep-alive connection to the server. When span is
// set, its requests carry it in spanHeader.
type client struct {
	hc   *http.Client
	span int
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the whole body.
func (c *client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if c.span != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(c.span))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return resp.StatusCode, out, err
}

// ingest posts one batch and checks the reply's record count.
func (c *client) ingest(ctx context.Context, base, tenant, part string, batch []byte, records int64) ([]byte, error) {
	status, body, err := c.do(ctx, http.MethodPost, base+"/v1/tenants/"+tenant+"/ingest?partition="+part, batch)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("ingest %s: status %d: %s", tenant, status, bytes.TrimSpace(body))
	}
	var reply struct {
		Records int64 `json:"records"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return nil, fmt.Errorf("ingest %s: %w", tenant, err)
	}
	if reply.Records != records {
		return nil, fmt.Errorf("ingest %s: %d records acked, sent %d", tenant, reply.Records, records)
	}
	return body, nil
}

// serveSession runs the twitter-serve workload: a server restored from
// the snapshot dir and a closed loop of two clients, each on its own
// keep-alive connection (ingest callers wait for the ack before
// sending more). Each client owns every second tenant, so it alone
// changes those tenants' schemas and knows which schema a read of one
// must return.
type serveSession struct {
	sc      scale
	seed    int64
	srv     *server
	batches [][][]byte // tenant → pool batch
	reads   [][]byte   // tenant → validate body
	unseen  [][]byte   // batches no tenant holds at the start
	// pool and unseenSchemas are offline inference over each tenant's
	// pool and over each unseen batch.
	pool, unseenSchemas []*jsi.Schema
	tenants             []tenantState
	corrupt             bool
	first               []byte // reply to the first ingest
	clients             []*serveClient
	acct                accounting
}

// tenantState is what the client owning a tenant knows of it.
type tenantState struct {
	// sent counts the unseen batches ingested into the tenant; the k-th
	// is unseen[(tenant+k) % len(unseen)].
	sent int
	// served maps a count of unseen batches sent to the digest of the
	// JSON Schema the tenant served at that count.
	served map[int]string
}

// serveClient is one closed-loop client and the tenants it owns.
type serveClient struct {
	*client
	rng     *rand.Rand
	cycles  int
	tenants []int
}

// openServe is the program's set-up as a serving user sees it: start
// the server over the snapshot dir, restore every tenant, and get the
// first ingest acked.
func openServe(ctx context.Context, dir string, cfg childConfig) (*serveSession, error) {
	sc := cfg.scale
	s := &serveSession{sc: sc, seed: cfg.seed}
	for i := 0; i < sc.tenants; i++ {
		pool, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(poolFile, i)))
		if err != nil {
			return nil, err
		}
		batches := splitRecords(pool, sc.batchRecords)
		s.batches = append(s.batches, batches)
		s.reads = append(s.reads, splitRecords(batches[len(batches)-1], sc.validateRecords)[0])
	}
	srv, err := startServer(filepath.Join(dir, snapshotDir), nil)
	if err != nil {
		return nil, err
	}
	s.srv = srv
	s.clients = []*serveClient{{client: newClient()}}
	for i := 0; i < sc.tenants; i++ {
		if err := s.restore(ctx, i); err != nil {
			return nil, errors.Join(err, s.close())
		}
	}
	s.first, err = s.clients[0].ingest(ctx, srv.base, tenantName(0), partitionName(0, sc.partitions), s.batches[0][0], int64(sc.batchRecords))
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

// restore has the server load tenant i from its snapshot and checks
// that every partition came back.
func (s *serveSession) restore(ctx context.Context, i int) error {
	status, body, err := s.clients[0].do(ctx, http.MethodGet, s.srv.base+"/v1/tenants/"+tenantName(i)+"/partitions", nil)
	if err != nil {
		return err
	}
	var reply struct {
		Partitions []struct {
			Records int64 `json:"records"`
		} `json:"partitions"`
	}
	if status != http.StatusOK {
		return fmt.Errorf("restoring %s: status %d", tenantName(i), status)
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		return err
	}
	var records int64
	for _, p := range reply.Partitions {
		records += p.Records
	}
	if want := int64(s.sc.batches * s.sc.batchRecords); len(reply.Partitions) != min(s.sc.partitions, s.sc.batches) || records != want {
		return fmt.Errorf("restoring %s: %d partitions with %d records, want %d records", tenantName(i), len(reply.Partitions), records, want)
	}
	return nil
}

func (s *serveSession) digest() string { return digest(s.first) }

// warm loads the oracles — the pools' schemas from their files, the
// unseen batches' by offline inference — and adds the second client;
// each client then runs warm-up cycles that are checked but not timed.
func (s *serveSession) warm(ctx context.Context, dir string, cfg childConfig) error {
	s.corrupt = cfg.corruptOracle
	for i := 0; i < s.sc.tenants; i++ {
		codec, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf(codecFile, i)))
		if err != nil {
			return err
		}
		pool, err := jsi.UnmarshalSchemaJSON(codec)
		if err != nil {
			return err
		}
		s.pool = append(s.pool, pool)
		s.tenants = append(s.tenants, tenantState{served: make(map[int]string)})
	}
	data, err := os.ReadFile(filepath.Join(dir, unseenFile))
	if err != nil {
		return err
	}
	s.unseen = splitRecords(data, s.sc.batchRecords)
	for _, b := range s.unseen {
		schema, _, err := jsi.Infer(ctx, jsi.FromBytes(b), jsi.Options{Workers: 1})
		if err != nil {
			return err
		}
		s.unseenSchemas = append(s.unseenSchemas, schema)
	}
	for len(s.clients) < workers {
		s.clients = append(s.clients, &serveClient{client: newClient()})
	}
	for c, cl := range s.clients {
		cl.rng = rand.New(rand.NewSource(s.seed + int64(c)))
		for i := c; i < s.sc.tenants; i += len(s.clients) {
			cl.tenants = append(cl.tenants, i)
		}
	}
	for c := range s.clients {
		for k := 0; k < warmups; k++ {
			var a accounting
			s.cycle(ctx, c, &a, false)
			s.acct.merge(&a)
		}
	}
	return nil
}

// cycle is one client cycle: an ingest, plus a validate on every
// fourth cycle and a JSON Schema read on another fourth. The ingest of
// a third fourth carries the tenant's next unseen batch while one is
// left, so that the repository's schemas keep changing; the other
// ingests replay a pool batch into the partition that holds it. Every
// reply is checked, the JSON Schema reads at the end of the run; timed
// cycles add their latencies to a.
func (s *serveSession) cycle(ctx context.Context, c int, a *accounting, timed bool) {
	cl := s.clients[c]
	n := cl.cycles
	cl.cycles++
	tenant, batch := cl.tenants[cl.rng.Intn(len(cl.tenants))], cl.rng.Intn(s.sc.batches)
	ts := &s.tenants[tenant]
	body, part := s.batches[tenant][batch], partitionName(batch, s.sc.partitions)
	if n%4 == 2 && ts.sent < len(s.unseen) {
		body, part = s.unseen[(tenant+ts.sent)%len(s.unseen)], partitionName(ts.sent, s.sc.partitions)
		ts.sent++
	}
	name, base := tenantName(tenant), s.srv.base

	a.Attempted++
	t0 := time.Now()
	_, err := cl.ingest(ctx, base, name, part, body, int64(s.sc.batchRecords))
	dt := time.Since(t0)
	if err != nil {
		a.fail("%v", err)
	} else if timed {
		a.Op = append(a.Op, ms(dt))
		a.Records += int64(s.sc.batchRecords)
	}

	switch n % 4 {
	case 1:
		a.Attempted++
		t0 = time.Now()
		status, body, err := cl.do(ctx, http.MethodPost, base+"/v1/tenants/"+name+"/validate", s.reads[tenant])
		dt = time.Since(t0)
		var reply struct{ Checked, Valid int }
		switch {
		case err != nil:
			a.fail("validate %s: %v", name, err)
		case status != http.StatusOK:
			a.fail("validate %s: status %d", name, status)
		case json.Unmarshal(body, &reply) != nil || reply.Checked != s.sc.validateRecords || reply.Valid != reply.Checked:
			a.fail("validate %s: reply %s", name, bytes.TrimSpace(body))
		case timed:
			a.Read = append(a.Read, ms(dt))
		}
	case 3:
		a.Attempted++
		status, body, err := cl.do(ctx, http.MethodGet, base+"/v1/tenants/"+name+"/schema?format=jsonschema", nil)
		switch {
		case err != nil:
			a.fail("schema %s: %v", name, err)
		case status != http.StatusOK:
			a.fail("schema %s: status %d", name, status)
		default:
			d := digest(bytes.TrimSuffix(body, []byte("\n")))
			if prev, ok := ts.served[ts.sent]; !ok {
				ts.served[ts.sent] = d
			} else if prev != d {
				a.fail("schema %s: the served JSON Schema changed without an ingest of unseen records", name)
			}
		}
	}
}

// round runs every client in a closed loop and records the process's
// peak resident set over the round, which starts from a collected heap
// with its free memory returned, so earlier rounds do not leak into it.
func (s *serveSession) round(ctx context.Context, budget time.Duration, minOps int) {
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		s.acct.Attempted++
		s.acct.fail("%v", err)
		return
	}
	accts := make([]accounting, len(s.clients))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0, start := cpuTime(), time.Now()
	var ops atomic.Int64 // timed ops of the run, across clients
	ops.Store(int64(len(s.acct.Op)))
	var wg sync.WaitGroup
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for first := true; first || keepGoing(start, budget, int(ops.Load()), minOps); first = false {
				select {
				case <-ctx.Done():
					return
				default:
				}
				n := len(accts[c].Op)
				s.cycle(ctx, c, &accts[c], true)
				ops.Add(int64(len(accts[c].Op) - n))
			}
		}(c)
	}
	wg.Wait()
	s.acct.Timed += time.Since(start)
	s.acct.CPU += cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	s.acct.memDelta(&before, &after)
	if peak, err := peakRSSMiB(); err != nil {
		s.acct.Attempted++
		s.acct.fail("%v", err)
	} else {
		s.acct.Peak = append(s.acct.Peak, peak)
	}
	for i := range accts {
		s.acct.merge(&accts[i])
	}
}

// finish checks every tenant's served schemas and reports the run.
func (s *serveSession) finish(ctx context.Context) childResult {
	for i := range s.tenants {
		s.acct.Attempted++
		if err := s.checkTenant(ctx, i); err != nil {
			s.acct.fail("%s: %v", tenantName(i), err)
		}
	}
	return childResult{accounting: s.acct}
}

// checkTenant compares the JSON Schema reads of tenant i and its final
// codec schema with offline inference over the records it had been
// sent: Infer over its pool and over each unseen batch, fused in a
// fresh Repository. For tenant 0 that fusion is checked in turn against
// one Infer over all those records.
func (s *serveSession) checkTenant(ctx context.Context, i int) error {
	ts := &s.tenants[i]
	oracle := jsi.NewRepository()
	oracle.Append("pool", s.pool[i], int64(s.sc.batches*s.sc.batchRecords))
	records := [][]byte{bytes.Join(s.batches[i], nil)}
	for k := 0; ; k++ {
		if d, ok := ts.served[k]; ok {
			js, err := oracle.Schema().JSONSchema()
			if err != nil {
				return err
			}
			if s.corrupt {
				js[len(js)/2] ^= 1
			}
			if digest(js) != d {
				return fmt.Errorf("the JSON Schema served after %d unseen batches differs from offline inference", k)
			}
		}
		if k == ts.sent {
			break
		}
		b := (i + k) % len(s.unseen)
		oracle.Append("unseen", s.unseenSchemas[b], int64(s.sc.batchRecords))
		records = append(records, s.unseen[b])
	}
	want, err := oracle.Schema().MarshalJSON()
	if err != nil {
		return err
	}
	if i == 0 {
		all, _, err := jsi.Infer(ctx, jsi.FromBytes(bytes.Join(records, nil)), jsi.Options{Workers: workers})
		if err != nil {
			return err
		}
		codec, err := all.MarshalJSON()
		if err != nil {
			return err
		}
		if !bytes.Equal(codec, want) {
			return errors.New("fusing per-batch inference disagrees with inference over all the records")
		}
	}
	if s.corrupt {
		want[len(want)/2] ^= 1
	}
	status, body, err := s.clients[0].do(ctx, http.MethodGet, s.srv.base+"/v1/tenants/"+tenantName(i)+"/schema?format=codec", nil)
	switch {
	case err != nil:
		return fmt.Errorf("final schema: %w", err)
	case status != http.StatusOK:
		return fmt.Errorf("final schema: status %d", status)
	case !bytes.Equal(bytes.TrimSuffix(body, []byte("\n")), want):
		return fmt.Errorf("final schema: served codec differs from offline inference over the pool and the %d unseen batches sent", ts.sent)
	}
	return nil
}

// replay times the ingest's library work per batch, then the serving
// layers over loopback.
func (s *serveSession) replay(ctx context.Context, tr *tracer, outDir string) (map[string]float64, error) {
	var inputs []replayInput
	var batches [][]byte
	for k := 0; k < s.sc.serveProbe; k++ {
		b := s.batches[k%s.sc.tenants][k%s.sc.batches]
		reads, err := splitLines(splitRecords(b, s.sc.validateRecords)[0])
		if err != nil {
			return nil, err
		}
		inputs = append(inputs, replayInput{data: b, reads: reads})
		batches = append(batches, b)
	}
	layers, err := replayLayers(ctx, tr, kindChunked, false, inputs)
	if err != nil {
		return nil, err
	}
	probe, err := serveProbe(ctx, tr, outDir, batches, s.sc.tenants, s.sc.partitions)
	if err != nil {
		return nil, err
	}
	for k, v := range probe {
		layers[k] = v
	}
	return layers, nil
}

// splitLines returns the non-empty lines of NDJSON data.
func splitLines(data []byte) ([][]byte, error) {
	var out [][]byte
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) > 0 {
			out = append(out, line)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("no records")
	}
	return out, nil
}

func (s *serveSession) close() error {
	for _, c := range s.clients {
		c.close()
	}
	return s.srv.close()
}

// serveProbe ingests batches one request at a time into a fresh server
// over loopback. Each ingest is a client span with the server's handler
// as a child span on another goroutine, so the client span's self time
// is the HTTP overhead. Beside it the probe replays the library calls
// the handler makes — Infer over the body, Append, the repository's
// fused Schema — on a shadow repository, then reads the tenant's JSON
// Schema back; the served schema must equal the shadow's.
func serveProbe(ctx context.Context, tr *tracer, outDir string, batches [][]byte, tenants, partitions int) (map[string]float64, error) {
	dir, err := os.MkdirTemp(outDir, "serve-probe-")
	if err != nil {
		return nil, err
	}
	srv, err := startServer(dir, tr)
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	cl := newClient()
	res, err := serveProbeLoop(ctx, tr, srv.base, cl, batches, tenants, partitions)
	cl.close()
	return res, errors.Join(err, srv.close(), os.RemoveAll(dir))
}

func serveProbeLoop(ctx context.Context, tr *tracer, base string, cl *client, batches [][]byte, tenants, partitions int) (map[string]float64, error) {
	shadow := make([]*jsi.Repository, tenants)
	for i := range shadow {
		shadow[i] = jsi.NewRepository()
	}
	// Each timed call starts from a collected heap, so one call's
	// garbage is not charged to the next.
	timed := func(name string, f func() error) error {
		runtime.GC()
		id := tr.begin(name)
		err := f()
		tr.end(id)
		return err
	}
	first := tr.req + 1
	for k, batch := range batches {
		tenant, part := k%tenants, partitionName(k, partitions)
		records := int64(bytes.Count(batch, []byte("\n")))
		var schema *jsi.Schema
		var st jsi.Stats
		var served []byte
		tr.request()
		root := tr.begin("serve")
		err := timed("serving.ingest_http", func() error {
			cl.span = tr.current()
			_, err := cl.ingest(ctx, base, tenantName(tenant), part, batch, records)
			cl.span = 0
			return err
		})
		if err == nil {
			err = timed("serving.ingest_infer", func() error {
				var err error
				schema, st, _, err = inferOp(ctx, kindChunked, replayInput{data: batch}, jsi.Options{Workers: workers}, false)
				return err
			})
		}
		if err == nil {
			err = timed("serving.append", func() error {
				shadow[tenant].Append(part, schema, st.Records)
				return nil
			})
		}
		if err == nil {
			err = timed("serving.repo_schema", func() error {
				schema = shadow[tenant].Schema()
				return nil
			})
		}
		if err == nil {
			err = timed("serving.schema_get", func() error {
				status, body, err := cl.do(ctx, http.MethodGet, base+"/v1/tenants/"+tenantName(tenant)+"/schema?format=jsonschema", nil)
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("schema: status %d", status)
				}
				served = body
				return err
			})
		}
		tr.end(root)
		if err != nil {
			return nil, err
		}
		want, err := schema.JSONSchema()
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(bytes.TrimSuffix(served, []byte("\n")), want) {
			return nil, fmt.Errorf("serve probe: served schema of %s differs from the shadow repository's", tenantName(tenant))
		}
	}
	self := selfByRequest(tr.spans, "serve")
	perReq := func(name string) []float64 {
		xs := make([]float64, len(batches))
		for i := range xs {
			xs[i] = ms(self[name][first+i])
		}
		return xs
	}
	return map[string]float64{
		"serving.ingest_infer_ms":  median(perReq("serving.ingest_infer")),
		"serving.append_ms":        median(perReq("serving.append")),
		"serving.repo_schema_ms":   median(perReq("serving.repo_schema")),
		"serving.schema_get_ms":    median(perReq("serving.schema_get")),
		"serving.http_overhead_ms": median(perReq("serving.ingest_http")),
	}, nil
}
