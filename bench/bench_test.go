package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command when the
// benchmark starts itself as a child process.
func TestMain(m *testing.M) {
	if os.Getenv(subprocessEnv) == "1" {
		os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
	}
	// Under -race every child would otherwise linger a second at exit
	// waiting for late race reports; the parent waits for each child.
	if err := os.Setenv("GORACE", "atexit_sleep_ms=0"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q does not match %s", d.Name, nameRE)
		}
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %s", d.Name, d.Unit, unitRE)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("bad workload name %q", w.name)
		}
		seen[w.name] = true
	}
}

// benchmarkFile is the shape of BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) || len(bf.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.EndToEnd) > 16 {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the catalog %d", len(bf.EndToEnd), len(endToEnd))
	}
	var setupBound, maxOther float64
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, m, d)
		}
		limit := maxBound
		if m.Name == "setup_s" {
			limit = maxSetupBound
		}
		if m.Bound < minBound || m.Bound > limit {
			t.Errorf("%s: bound %v outside [%v, %v]", m.Name, m.Bound, minBound, limit)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else if m.Bound > maxOther {
			maxOther = m.Bound
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s must have the largest bound: %v < %v", setupBound, maxOther)
	}
	if len(bf.PerLayer) != len(perLayer) || len(bf.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the catalog %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, m, d)
		}
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
	if strings.Join(bf.Command, " ") != "bash bench/run.sh" {
		t.Errorf("command %v", bf.Command)
	}
}

// quickRun runs the command in quick mode with extra flags and returns
// its exit code, the table rows and the result line.
func quickRun(t *testing.T, args ...string) (int, [][]string, result) {
	t.Helper()
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), append([]string{"-quick", "-out", out}, args...), &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, no result line: %v\nstdout:\n%s\nstderr:\n%s", code, err, stdout.String(), stderr.String())
	}
	var rows [][]string
	for _, line := range lines[1 : len(lines)-1] {
		rows = append(rows, strings.Fields(line))
	}
	if code != 0 {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return code, rows, res
}

// TestQuickSmoke runs every workload at toy scale, traced, and checks
// that the output carries exactly the metrics BENCHMARK.json lists.
func TestQuickSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	code, rows, res := quickRun(t, "-trace", "1")
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("exit %d, result %+v", code, res)
	}

	units := make(map[string]string)
	for _, m := range bf.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		units[m.Name] = m.Unit
	}
	printed := make(map[string]map[string]bool)
	for _, row := range rows {
		w, name := row[0], row[1]
		if name == "ops" {
			continue
		}
		unit, ok := units[name]
		if !ok {
			t.Errorf("%s prints %s, which BENCHMARK.json does not list", w, name)
		} else if row[2] != unit {
			t.Errorf("%s prints %s in %s, BENCHMARK.json says %s", w, name, row[2], unit)
		}
		if printed[w] == nil {
			printed[w] = make(map[string]bool)
		}
		printed[w][name] = true
	}
	for _, w := range workloads {
		for name := range units {
			if !printed[w.name][name] {
				t.Errorf("%s does not print %s", w.name, name)
			}
		}
		for _, m := range bf.PerLayer {
			if got, ok := res.Metrics[w.name+"."+m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("result line: %s.%s = %+v", w.name, m.Name, got)
			}
		}
	}
	if want := len(workloads) * len(bf.PerLayer); len(res.Metrics) != want {
		t.Errorf("result line has %d metrics, want %d", len(res.Metrics), want)
	}
}

// TestWrongOracleFails checks that verification is not vacuous: with
// every oracle corrupted the run reports failed ops and exits non-zero.
func TestWrongOracleFails(t *testing.T) {
	code, _, res := quickRun(t, "-trace", "0", "-corrupt-oracle")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Fatalf("exit %d, result %+v: a wrong oracle must fail the run", code, res)
	}
	if len(res.Metrics) != len(workloads)*len(endToEnd) {
		t.Errorf("result line has %d metrics, want the %d end-to-end ones", len(res.Metrics), len(workloads)*len(endToEnd))
	}
}
