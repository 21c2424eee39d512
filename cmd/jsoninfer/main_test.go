package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

func runCmd(t *testing.T, args []string, stdin string) (string, string, error) {
	t.Helper()
	var out, errBuf bytes.Buffer
	err := run(context.Background(), args, strings.NewReader(stdin), &out, &errBuf)
	return out.String(), errBuf.String(), err
}

func TestStdinTypeFormat(t *testing.T) {
	out, _, err := runCmd(t, nil, `{"a":1}`+"\n"+`{"a":"s","b":true}`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "{a: Num + Str, b: Bool?}" {
		t.Errorf("output = %q", out)
	}
}

func TestStreamMode(t *testing.T) {
	out, _, err := runCmd(t, []string{"-stream"}, `{"a":1}`+"\n"+`{"b":2}`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "{a: Num?, b: Num?}" {
		t.Errorf("output = %q", out)
	}
}

func TestFormats(t *testing.T) {
	for format, want := range map[string]string{
		"indent":     "a: Num",
		"jsonschema": `"type": "object"`,
		"codec":      `"k":"record"`,
	} {
		out, _, err := runCmd(t, []string{"-format", format}, `{"a":1}`)
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if !strings.Contains(out, want) {
			t.Errorf("format %s output %q missing %q", format, out, want)
		}
	}
}

func TestUnknownFormat(t *testing.T) {
	if _, _, err := runCmd(t, []string{"-format", "xml"}, `1`); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestStatsFlag(t *testing.T) {
	_, errOut, err := runCmd(t, []string{"-stats"}, `{"a":1}`+"\n"+`{"a":2}`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut, "records=2") {
		t.Errorf("stats output = %q", errOut)
	}
}

func TestFilesAsPartitions(t *testing.T) {
	dir := t.TempDir()
	f1 := filepath.Join(dir, "a.ndjson")
	f2 := filepath.Join(dir, "b.ndjson")
	os.WriteFile(f1, []byte(`{"x":1}`+"\n"), 0o600)
	os.WriteFile(f2, []byte(`{"y":"s"}`+"\n"), 0o600)
	out, _, err := runCmd(t, []string{f1, f2}, "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "{x: Num?, y: Str?}" {
		t.Errorf("output = %q", out)
	}
	// Streaming over files gives the same schema.
	outStream, _, err := runCmd(t, []string{"-stream", f1, f2}, "")
	if err != nil {
		t.Fatal(err)
	}
	if outStream != out {
		t.Errorf("stream output %q != %q", outStream, out)
	}
}

func TestMissingFile(t *testing.T) {
	if _, _, err := runCmd(t, []string{"/nonexistent/x.ndjson"}, ""); err == nil {
		t.Error("missing file accepted")
	}
	if _, _, err := runCmd(t, []string{"-stream", "/nonexistent/x.ndjson"}, ""); err == nil {
		t.Error("missing file accepted in stream mode")
	}
}

func TestMalformedInput(t *testing.T) {
	if _, _, err := runCmd(t, nil, `{"a":`); err == nil {
		t.Error("malformed input accepted")
	}
}

func TestProfileFlag(t *testing.T) {
	out, _, err := runCmd(t, []string{"-profile"}, `{"a":1}`+"\n"+`{"a":9,"b":"x"}`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"profile of 2 values", `"b"? ⟨50%⟩`, "1..9"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
}

func TestProfileFlagOverFiles(t *testing.T) {
	dir := t.TempDir()
	f1 := filepath.Join(dir, "a.ndjson")
	f2 := filepath.Join(dir, "b.ndjson")
	os.WriteFile(f1, []byte(`{"x":1}`+"\n"), 0o600)
	os.WriteFile(f2, []byte(`{"x":2}`+"\n"), 0o600)
	out, _, err := runCmd(t, []string{"-profile", f1, f2}, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "profile of 2 values") {
		t.Errorf("output = %q", out)
	}
	if _, _, err := runCmd(t, []string{"-profile", "/no/such/file"}, ""); err == nil {
		t.Error("missing profile file accepted")
	}
}

// TestStreamOverFiles covers the -stream file reader: both files must
// be fully read, typed, and closed without losing the inference result,
// and a missing file fails the run.
func TestStreamOverFiles(t *testing.T) {
	dir := t.TempDir()
	f1 := filepath.Join(dir, "a.ndjson")
	f2 := filepath.Join(dir, "b.ndjson")
	if err := os.WriteFile(f1, []byte(`{"x":1}`+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f2, []byte(`{"x":"s"}`+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	out, _, err := runCmd(t, []string{"-stream", f1, f2}, "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "{x: Num + Str}" {
		t.Errorf("output = %q", out)
	}
	if _, _, err := runCmd(t, []string{"-stream", "/no/such/file"}, ""); err == nil {
		t.Error("missing stream file accepted")
	}
}

// TestStreamOverFilesMatchesBatch: -stream reads its files as one
// stream, so its stats and its schema under every fusion policy equal
// the non-stream run's. Only distinct-types differs: the stream keeps
// no distinct-type set.
func TestStreamOverFilesMatchesBatch(t *testing.T) {
	dir := t.TempDir()
	distinct := regexp.MustCompile(`distinct-types=\d+ `)
	for _, tc := range []struct {
		flag   string
		f1, f2 string
	}{
		// The first file ends in a number without a newline: it must not
		// run into the second file's value.
		{"-stats", `{"a":1}` + "\n" + `{"a":2,"b":[true]}` + "\n" + `3`, `4`},
		{"-positional", `{"p":[1,"x"]}`, `{"p":[2,"y"]}`},
		{"-tagged", `{"delete":{"id":1}}`, `{"create":{"id":2,"x":"s"}}`},
	} {
		paths := []string{filepath.Join(dir, tc.flag[1:]+"1.ndjson"), filepath.Join(dir, tc.flag[1:]+"2.ndjson")}
		for i, data := range []string{tc.f1, tc.f2} {
			if err := os.WriteFile(paths[i], []byte(data), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		out, errOut, err := runCmd(t, append([]string{tc.flag}, paths...), "")
		if err != nil {
			t.Fatal(err)
		}
		sOut, sErrOut, err := runCmd(t, append([]string{tc.flag, "-stream"}, paths...), "")
		if err != nil {
			t.Fatal(err)
		}
		if sOut != out {
			t.Errorf("%s: -stream output %q, want %q", tc.flag, sOut, out)
		}
		if got, want := distinct.ReplaceAllString(sErrOut, ""), distinct.ReplaceAllString(errOut, ""); got != want {
			t.Errorf("%s: -stream stderr %q, want %q", tc.flag, got, want)
		}
	}
}

// TestStreamOnErrorSkipQuarantines: -stream cuts its input into chunks
// like every other mode, so -on-error skip quarantines the one chunk a
// malformed line poisons, reports it, and types the rest.
func TestStreamOnErrorSkipQuarantines(t *testing.T) {
	var b strings.Builder
	pad := strings.Repeat("x", 90)
	const lines = 4000 // about 400 KB: several 64 KiB chunks
	for i := 0; i < lines; i++ {
		if i == 2500 {
			b.WriteString("{\"a\":}\n")
			continue
		}
		fmt.Fprintf(&b, `{"a":%d,"pad":"%s"}`+"\n", i, pad)
	}
	out, errOut, err := runCmd(t, []string{"-stream", "-on-error", "skip", "-stats"}, b.String())
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "{a: Num, pad: Str}" {
		t.Errorf("schema = %q, want the clean lines' schema", out)
	}
	if !strings.Contains(errOut, "warning: 1 chunk(s) quarantined") || !strings.Contains(errOut, "quarantined-chunks=1") {
		t.Errorf("stderr missing the quarantine report: %q", errOut)
	}
	var records int
	if _, err := fmt.Sscanf(errOut[strings.Index(errOut, "records="):], "records=%d", &records); err != nil || records <= 0 || records >= lines-1 {
		t.Errorf("records = %d (%v), want the clean chunks' records only: %q", records, err, errOut)
	}
	if _, _, err := runCmd(t, []string{"-stream", "-retries", "2"}, `{"a":1}`); err != nil {
		t.Errorf("-stream -retries 2: %v", err)
	}
}

func TestPositionalFlag(t *testing.T) {
	in := `{"p":[1,2]}` + "\n" + `{"p":[3,4]}`
	out, _, err := runCmd(t, []string{"-positional"}, in)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "{p: [Num, Num]}" {
		t.Errorf("positional output = %q", out)
	}
	out, _, err = runCmd(t, nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "{p: [Num*]}" {
		t.Errorf("default output = %q", out)
	}
}

func TestExpandFlag(t *testing.T) {
	in := `{"user":{"id":1,"name":"a"},"tags":[{"k":"x"}]}`
	out, _, err := runCmd(t, []string{"-expand", "$.user.*"}, in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "$.user.id : Num") || !strings.Contains(out, "$.user.name : Str") {
		t.Errorf("expand output = %q", out)
	}
	out, _, err = runCmd(t, []string{"-expand", "$.bogus"}, in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "no conforming value") {
		t.Errorf("dead-path output = %q", out)
	}
	if _, _, err := runCmd(t, []string{"-expand", "not-a-path"}, in); err == nil {
		t.Error("bad expand path accepted")
	}
}

func TestBadFlag(t *testing.T) {
	if _, _, err := runCmd(t, []string{"-definitely-not-a-flag"}, ""); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestSampleFlag(t *testing.T) {
	in := `{"a":1,"b":"x"}` + "\n" + `{"a":2}`
	out, _, err := runCmd(t, []string{"-sample", "3"}, in)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"a":`) {
		t.Errorf("sample output = %q", out)
	}
	// Same seed, same sample.
	out2, _, err := runCmd(t, []string{"-sample", "3"}, in)
	if err != nil {
		t.Fatal(err)
	}
	if out != out2 {
		t.Error("sample not deterministic")
	}
}

func TestAbstractFlag(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 5; i++ {
		sb.WriteString(`{"dict":{`)
		for k := 0; k < 6; k++ {
			if k > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `"P%d%d":{"v":%d}`, i, k, k)
		}
		sb.WriteString("}}\n")
	}
	out, _, err := runCmd(t, []string{"-abstract", "8"}, sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "{*: {v: Num}}") {
		t.Errorf("abstracted output = %q", out)
	}
	out, _, err = runCmd(t, nil, sb.String())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "{*:") {
		t.Errorf("default output should not abstract: %q", out)
	}
}

// syncBuffer lets the test read what run writes to stderr while run is
// still in flight.
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

// TestDebugAddrServesLiveExpvar drives a run whose stdin stays open,
// and asserts the -debug-addr endpoint reports pipeline metrics while
// the run is still in flight.
func TestDebugAddrServesLiveExpvar(t *testing.T) {
	pr, pw := io.Pipe()
	var out bytes.Buffer
	errW := &syncBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{"-debug-addr", "127.0.0.1:0", "-stream"}, pr, &out, errW)
	}()
	if _, err := io.WriteString(pw, `{"a":1}`+"\n"); err != nil {
		t.Fatal(err)
	}

	// The server announces its actual address (the test asked for :0).
	addrRe := regexp.MustCompile(`listening on http://([^/]+)/`)
	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for addr == "" {
		if m := addrRe.FindStringSubmatch(errW.String()); m != nil {
			addr = m[1]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("debug server address never announced; stderr: %q", errW.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Poll /debug/vars until the live metrics show the record we fed in;
	// the run is provably still in flight because stdin is still open.
	var body string
	for {
		resp, err := http.Get("http://" + addr + "/debug/vars")
		if err == nil {
			b, rerr := io.ReadAll(resp.Body)
			if cerr := resp.Body.Close(); rerr == nil && cerr == nil {
				body = string(b)
			}
			if strings.Contains(body, `"jsoninfer_metrics"`) && strings.Contains(body, "infer_records") {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("expvar never served live metrics; last body: %s", body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "{a: Num}" {
		t.Errorf("schema output = %q", out.String())
	}
}

// TestStatsLowerBoundAcrossFiles asserts the stats line no longer
// reports distinct-types as a lower bound when partitions are merged:
// the count is exact, with no ">=" marker, for one file or several.
func TestStatsLowerBoundAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	f1 := filepath.Join(dir, "a.ndjson")
	f2 := filepath.Join(dir, "b.ndjson")
	if err := os.WriteFile(f1, []byte(`{"x":1}`+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f2, []byte(`{"y":"s"}`+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	_, errOut, err := runCmd(t, []string{"-stats", f1, f2}, "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(errOut, "distinct-types>=") || !strings.Contains(errOut, "distinct-types=2 ") {
		t.Errorf("merged stats should be exact: %q", errOut)
	}
	_, errOut, err = runCmd(t, []string{"-stats", f1}, "")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(errOut, "distinct-types>=") || !strings.Contains(errOut, "distinct-types=1 ") {
		t.Errorf("single-file stats should be exact: %q", errOut)
	}
}

// TestStatsDedupExactAcrossFiles: the chunked pipeline merges the
// distinct-type hash sets of every file of a run, so the stats line
// stays exact over
// several files — including when both files share shapes, where a
// per-file bound would undercount. The -stream path keeps no
// distinct-type set and reports zero.
func TestStatsDedupExactAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	f1 := filepath.Join(dir, "a.ndjson")
	f2 := filepath.Join(dir, "b.ndjson")
	// Three distinct shapes overall; each file alone sees two.
	if err := os.WriteFile(f1, []byte(`{"x":1}`+"\n"+`{"shared":true}`+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(f2, []byte(`{"y":"s"}`+"\n"+`{"shared":true}`+"\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-stats", f1}, "distinct-types=2 "},
		{[]string{"-stats", f1, f2}, "distinct-types=3 "},
		{[]string{"-stats", "-stream", f1, f2}, "distinct-types=0 "},
	} {
		_, errOut, err := runCmd(t, tc.args, "")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(errOut, tc.want) {
			t.Errorf("%v: stats line %q, want %q", tc.args, errOut, tc.want)
		}
	}
}

func TestStatsAverageAcrossFiles(t *testing.T) {
	dir := t.TempDir()
	f1 := filepath.Join(dir, "a.ndjson")
	os.WriteFile(f1, []byte(`{"a":1}`+"\n"+`{"a":2,"b":3}`+"\n"), 0o600)
	_, errOut, err := runCmd(t, []string{"-stats", f1}, "")
	if err != nil {
		t.Fatal(err)
	}
	// sizes 3 and 5 -> avg 4.0
	if !strings.Contains(errOut, "avg=4.0") {
		t.Errorf("stats = %q", errOut)
	}
}

// poisonedNDJSON builds 40 lines of valid NDJSON with one malformed
// (but bracket-balanced, so chunk boundaries stay line-aligned) line
// in the middle: exactly one of the four map chunks fails.
func poisonedNDJSON() string {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		if i == 25 {
			b.WriteString("{\"a\":}\n")
			continue
		}
		fmt.Fprintf(&b, `{"a":%d}`+"\n", i)
	}
	return b.String()
}

func TestOnErrorSkipQuarantinesPoisonedChunk(t *testing.T) {
	out, errOut, err := runCmd(t, []string{"-workers", "1", "-on-error", "skip", "-stats"}, poisonedNDJSON())
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out) != "{a: Num}" {
		t.Errorf("schema = %q, want the clean lines' schema", out)
	}
	if !strings.Contains(errOut, "warning: 1 chunk(s) quarantined") {
		t.Errorf("stderr missing quarantine warning: %q", errOut)
	}
	if !strings.Contains(errOut, "quarantined-chunks=1") {
		t.Errorf("stats line missing quarantine count: %q", errOut)
	}
	// records = 40 lines minus the poisoned chunk's 10.
	if !strings.Contains(errOut, "records=30") {
		t.Errorf("stats line should exclude quarantined records: %q", errOut)
	}
}

func TestOnErrorFailAbortsOnPoisonedChunk(t *testing.T) {
	if _, _, err := runCmd(t, []string{"-workers", "1"}, poisonedNDJSON()); err == nil {
		t.Error("default policy accepted a poisoned chunk")
	}
}

func TestOnErrorRejectsUnknownPolicy(t *testing.T) {
	_, _, err := runCmd(t, []string{"-on-error", "explode"}, `{"a":1}`)
	if err == nil || !strings.Contains(err.Error(), "-on-error") {
		t.Errorf("err = %v, want an unknown -on-error error", err)
	}
}

func TestNegativeRetriesRejected(t *testing.T) {
	if _, _, err := runCmd(t, []string{"-retries", "-1"}, `{"a":1}`); err == nil {
		t.Error("negative -retries accepted")
	}
}
