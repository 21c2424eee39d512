// Command schemad serves multi-tenant incremental schema inference
// over HTTP.
//
// Usage:
//
//	schemad [flags]
//
// Each tenant is an isolated incremental repository: NDJSON batches
// POSTed to its ingest endpoint stream through the same pipeline
// engine as the offline CLI, under the one inference policy these
// flags set (a request chooses only its partition), and the fused
// schema is available live at any time — byte-identical to what
// offline inference over the concatenated batches would produce, by
// fusion's associativity and commutativity. Idle tenants are spilled
// to disk snapshots so the resident set stays bounded; on
// SIGINT/SIGTERM the server drains in-flight requests and snapshots
// every resident tenant.
//
// Endpoints (see docs/SERVING.md for details and examples):
//
//	GET    /healthz
//	GET    /v1/metrics
//	GET    /v1/tenants
//	POST   /v1/tenants/{tenant}/ingest?partition=P
//	GET    /v1/tenants/{tenant}/schema?format=type|indent|jsonschema|codec|enrich&enrich=off
//	GET    /v1/tenants/{tenant}/partitions
//	GET    /v1/tenants/{tenant}/partitions/{part}/schema
//	DELETE /v1/tenants/{tenant}/partitions/{part}
//	POST   /v1/tenants/{tenant}/diff
//	POST   /v1/tenants/{tenant}/validate
//	GET    /v1/tenants/{tenant}/snapshot
//	PUT    /v1/tenants/{tenant}/snapshot
//	DELETE /v1/tenants/{tenant}
//
// Flags:
//
//	-addr              listen address (default 127.0.0.1:8377)
//	-data-dir          snapshot directory (default: a fresh temp dir,
//	                   announced on stderr)
//	-max-tenants       resident repository cap before LRU spill
//	-max-body-bytes    per-request body cap
//	-ingest-workers    map-phase parallelism per ingest request
//	-retries           per-chunk retry budget for ingest pipelines
//	-on-error          chunk failure policy of every ingest: fail or skip
//	-enrich            enrichment monoids computed on every ingest
//	                   (comma list or "all"; see docs/ENRICHMENT.md)
//	-tagged            infer tagged unions on every ingest
//	                   (see docs/UNIONS.md)
//	-union-keys        discriminator field names for -tagged, a comma
//	                   list (default type,event,kind)
//	-debug-addr        serve expvar (schemad_metrics) and pprof here
//	-shutdown-timeout  grace period for draining on SIGINT/SIGTERM
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/debugserver"
	"repro/internal/serving"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "schemad:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("schemad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8377", "listen address")
	dataDir := fs.String("data-dir", "", "tenant snapshot directory (default: fresh temp dir)")
	maxTenants := fs.Int("max-tenants", 1024, "resident repository cap before LRU spill to disk")
	maxBodyBytes := fs.Int64("max-body-bytes", 64<<20, "per-request body cap in bytes")
	ingestWorkers := fs.Int("ingest-workers", 2, "map-phase parallelism per ingest request")
	retries := fs.Int("retries", 0, "per-chunk retry budget for ingest pipelines")
	onError := fs.String("on-error", "fail", "chunk failure policy of every ingest: fail or skip")
	enrichNames := fs.String("enrich", "", "enrichment monoids for every ingest (comma list or \"all\"; empty disables)")
	tagged := fs.Bool("tagged", false, "infer tagged unions on every ingest")
	unionKeys := fs.String("union-keys", "", "comma-separated discriminator field names for -tagged (default type,event,kind)")
	debugAddr := fs.String("debug-addr", "", "serve expvar and pprof on this address")
	shutdownTimeout := fs.Duration("shutdown-timeout", 15*time.Second, "grace period for draining in-flight requests")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var skip bool
	switch *onError {
	case "fail":
	case "skip":
		skip = true
	default:
		return fmt.Errorf("unknown -on-error %q (want fail or skip)", *onError)
	}
	var enrich []string
	if *enrichNames != "" {
		enrich = []string{*enrichNames}
	}
	var keys []string
	if *unionKeys != "" {
		if !*tagged {
			return fmt.Errorf("-union-keys requires -tagged")
		}
		keys = splitKeys(*unionKeys)
	}
	if *dataDir == "" {
		dir, err := os.MkdirTemp("", "schemad-*")
		if err != nil {
			return err
		}
		*dataDir = dir
		fmt.Fprintf(stderr, "snapshots in %s\n", dir)
	}

	srv, err := serving.New(serving.Config{
		DataDir:            *dataDir,
		MaxResidentTenants: *maxTenants,
		MaxBodyBytes:       *maxBodyBytes,
		IngestWorkers:      *ingestWorkers,
		Retries:            *retries,
		OnErrorSkip:        skip,
		Enrich:             enrich,
		TaggedUnions:       *tagged,
		UnionKeys:          keys,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "schemad: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		debugserver.Publish("schemad_metrics", func() any { return srv.Metrics() })
		ds, err := debugserver.Start(*debugAddr)
		if err != nil {
			return err
		}
		defer closeQuiet(ds)
		fmt.Fprintf(stderr, "debug server listening on %s\n", ds.URL())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go serveHTTP(hs, ln, errc)
	fmt.Fprintf(stderr, "schemad listening on http://%s\n", ln.Addr())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain in-flight ingests, then persist every resident tenant.
	// WithoutCancel: the parent is already cancelled — the whole point
	// of the grace period is to outlive the signal.
	shCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), *shutdownTimeout)
	defer cancel()
	fmt.Fprintln(stderr, "shutting down")
	return errors.Join(hs.Shutdown(shCtx), srv.SaveAll())
}

// splitKeys parses the -union-keys comma list, trimming blanks so
// "type, event" works and dropping empty names.
func splitKeys(s string) []string {
	var keys []string
	for _, k := range strings.Split(s, ",") {
		if k = strings.TrimSpace(k); k != "" {
			keys = append(keys, k)
		}
	}
	return keys
}

// serveHTTP runs the accept loop, reporting the terminal error (nil
// for a clean Shutdown) exactly once.
func serveHTTP(hs *http.Server, ln net.Listener, errc chan<- error) {
	err := hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	errc <- err
}

// closeQuiet closes the debug server; its traffic is advisory, so a
// close error is not worth failing the run over.
func closeQuiet(ds *debugserver.Server) {
	_ = ds.Close()
}
