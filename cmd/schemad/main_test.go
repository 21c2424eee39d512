package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer is a goroutine-safe writer for capturing run's stderr
// while it executes concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRE = regexp.MustCompile(`schemad listening on (http://[^\s]+)`)

// waitForAddr polls stderr for the announced listen address.
func waitForAddr(t *testing.T, buf *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrRE.FindStringSubmatch(buf.String()); m != nil {
			return m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never announced its address; stderr:\n%s", buf.String())
	return ""
}

// TestRunServesAndShutsDown boots the real daemon on an ephemeral
// port, ingests a record, then cancels the root context and checks
// the graceful-shutdown path returns cleanly.
func TestRunServesAndShutsDown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-data-dir", t.TempDir()}, &stderr)
	}()
	base := waitForAddr(t, &stderr)

	if status, body := do(t, http.MethodPost, base+"/v1/tenants/smoke/ingest", `{"a":1}`+"\n"); status != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", status, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after context cancellation")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	var stderr syncBuffer
	if err := run(ctx, []string{"-on-error", "bogus"}, &stderr); err == nil {
		t.Error("run accepted -on-error bogus")
	}
}

// TestRunTrimsUnionKeys: -union-keys "type, kind" probes kind, not
// " kind", so records discriminated by kind infer a union keyed by it.
func TestRunTrimsUnionKeys(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-data-dir", t.TempDir(),
			"-tagged", "-union-keys", "type, kind"}, &stderr)
	}()
	base := waitForAddr(t, &stderr)

	records := `{"kind": "a", "x": 1}` + "\n" + `{"kind": "b", "y": "s"}` + "\n"
	if status, body := do(t, http.MethodPost, base+"/v1/tenants/k/ingest", records); status != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", status, body)
	}
	status, body := do(t, http.MethodGet, base+"/v1/tenants/k/schema", "")
	if status != http.StatusOK {
		t.Fatalf("schema: status %d: %s", status, body)
	}
	if got := strings.TrimSpace(string(body)); !strings.HasPrefix(got, "variants(kind){") {
		t.Errorf("schema = %s, want a union keyed by kind", got)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run returned %v after graceful shutdown", err)
	}
}

// do issues one request and returns its status and body.
func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
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
