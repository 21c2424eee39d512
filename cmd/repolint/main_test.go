package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/analyze"
)

func runCmd(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, &out, &errBuf)
	return out.String(), errBuf.String(), code
}

// writeModule lays out a throwaway single-package module and returns
// the package directory.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module tmpmod\n\ngo 1.22\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "p")
	if err := os.Mkdir(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o600); err != nil {
		t.Fatal(err)
	}
	return dir
}

const dirtySrc = `package p

import "os"

func Drop(f *os.File) {
	f.Close()
}
`

const cleanSrc = `package p

import "os"

func Keep(f *os.File) error {
	return f.Close()
}
`

func TestFindingsExitOne(t *testing.T) {
	dir := writeModule(t, dirtySrc)
	out, errOut, code := runCmd(t, dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, errOut)
	}
	if !strings.Contains(out, "droppederr") || !strings.Contains(out, "os.Close") {
		t.Errorf("output = %q, want a droppederr finding", out)
	}
	if !strings.Contains(errOut, "1 finding(s)") {
		t.Errorf("stderr = %q, want a findings summary", errOut)
	}
}

func TestCleanExitZero(t *testing.T) {
	dir := writeModule(t, cleanSrc)
	out, errOut, code := runCmd(t, dir)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stdout: %s, stderr: %s)", code, out, errOut)
	}
	if out != "" {
		t.Errorf("output = %q, want empty", out)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, dirtySrc)
	out, _, code := runCmd(t, "-json", dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var diags []analyze.Diagnostic
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(diags) != 1 || diags[0].Analyzer != "droppederr" || diags[0].Line == 0 {
		t.Errorf("diags = %+v, want one droppederr finding with a line", diags)
	}
}

func TestJSONOutputCleanIsEmptyArray(t *testing.T) {
	dir := writeModule(t, cleanSrc)
	out, _, code := runCmd(t, "-json", dir)
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("output = %q, want []", out)
	}
}

func TestSuppressionHonored(t *testing.T) {
	dir := writeModule(t, `package p

import "os"

func Drop(f *os.File) {
	//lint:ignore droppederr read-only file in a throwaway test module
	f.Close()
}
`)
	out, _, code := runCmd(t, dir)
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (out: %s)", code, out)
	}
}

func TestListAnalyzers(t *testing.T) {
	out, _, code := runCmd(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != len(analyze.All()) || len(lines) != 7 {
		t.Fatalf("-list printed %d lines, want 7 (one per analyzer):\n%s", len(lines), out)
	}
	for _, a := range analyze.All() {
		if !strings.Contains(out, a.Name) {
			t.Errorf("-list output missing %s", a.Name)
		}
		wantKind := "local"
		if a.NeedsSummaries {
			wantKind = "interprocedural"
		}
		for _, line := range lines {
			if strings.HasPrefix(line, a.Name+" ") && !strings.Contains(line, wantKind) {
				t.Errorf("-list line for %s lacks kind %q: %s", a.Name, wantKind, line)
			}
		}
	}
	for _, name := range []string{"monoidpure", "internmut", "ctxflow"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing interprocedural analyzer %s", name)
		}
	}
}

// TestJSONShapeGolden pins the exact serialized field set of a finding:
// downstream consumers (editor integrations, the CI diff script) key on
// these property names, so adding or renaming one must be a conscious,
// test-breaking act.
func TestJSONShapeGolden(t *testing.T) {
	dir := writeModule(t, dirtySrc)
	out, _, code := runCmd(t, "-json", dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var raw []map[string]any
	if err := json.Unmarshal([]byte(out), &raw); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if len(raw) != 1 {
		t.Fatalf("got %d findings, want 1", len(raw))
	}
	want := []string{"analyzer", "doc", "message", "file", "line", "col", "endLine", "endCol"}
	got := make([]string, 0, len(raw[0]))
	for k := range raw[0] {
		got = append(got, k)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !slices.Equal(got, want) {
		t.Errorf("JSON keys = %v, want %v", got, want)
	}
	if doc, _ := raw[0]["doc"].(string); !strings.HasPrefix(doc, "docs/ANALYSIS.md#") {
		t.Errorf("doc = %q, want a docs/ANALYSIS.md anchor", raw[0]["doc"])
	}
	if end, _ := raw[0]["endLine"].(float64); end < 1 {
		t.Errorf("endLine = %v, want a populated end position", raw[0]["endLine"])
	}
}

func TestJSONAndSARIFMutuallyExclusive(t *testing.T) {
	_, errOut, code := runCmd(t, "-json", "-sarif", ".")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "mutually exclusive") {
		t.Errorf("stderr = %q, want a mutually-exclusive complaint", errOut)
	}
}

// TestSARIFOutput smoke-tests the -sarif path end to end on a dirty
// module: valid JSON, correct version, one result, relative URI.
func TestSARIFOutput(t *testing.T) {
	dir := writeModule(t, dirtySrc)
	out, _, code := runCmd(t, "-sarif", dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &log); err != nil {
		t.Fatalf("SARIF output is not JSON: %v\n%s", err, out)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version=%q runs=%d, want 2.1.0 and 1 run", log.Version, len(log.Runs))
	}
	rs := log.Runs[0].Results
	if len(rs) != 1 || rs[0].RuleID != "droppederr" {
		t.Fatalf("results = %+v, want one droppederr", rs)
	}
	if uri := rs[0].Locations[0].PhysicalLocation.ArtifactLocation.URI; filepath.IsAbs(uri) {
		t.Errorf("artifact URI %q is absolute, want relative to the module root", uri)
	}
}

// TestStatsOutput checks -stats prints a per-analyzer line with a
// finding count and wall time for every registered analyzer.
func TestStatsOutput(t *testing.T) {
	dir := writeModule(t, dirtySrc)
	_, errOut, code := runCmd(t, "-stats", dir)
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	for _, a := range analyze.All() {
		if !strings.Contains(errOut, a.Name) {
			t.Errorf("-stats output missing %s:\n%s", a.Name, errOut)
		}
	}
	if !strings.Contains(errOut, "finding(s)") || !strings.Contains(errOut, "ms") {
		t.Errorf("-stats output lacks counts or timing:\n%s", errOut)
	}
}

func TestLoadErrorExitTwo(t *testing.T) {
	if _, _, code := runCmd(t, filepath.Join(t.TempDir(), "nope")); code != 2 {
		t.Errorf("exit = %d, want 2 for an unloadable pattern", code)
	}
}
