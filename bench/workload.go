package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/dataset"
)

// workers is the map-phase parallelism of every workload: the core
// count of the 2-core reference host, so no op runs more threads than
// that host has.
const workers = 2

// sourceKind is how a workload hands its records to the library.
type sourceKind int

const (
	// kindFile is FromFile: pooled 4 MiB chunks read from disk while
	// the workers decode.
	kindFile sourceKind = iota
	// kindBytes is FromBytes: an in-memory buffer split into
	// 4 × workers chunks.
	kindBytes
	// kindStream is FromReader over an *os.File: the sequential,
	// constant-memory left fold.
	kindStream
	// kindChunked is FromChunkedReader over a request body, the way
	// schemad ingests.
	kindChunked
)

// A workload is one set of inputs and the ops the benchmark runs over
// them. bench/README.md records why each was chosen.
type workload struct {
	name    string
	kind    sourceKind
	dataset string
	// tailP is the fixed percentile op_tail_ms reports.
	tailP float64
}

var workloads = []workload{
	{name: "github-file", kind: kindFile, dataset: "github", tailP: 0.75},
	{name: "wikidata-bytes", kind: kindBytes, dataset: "wikidata", tailP: 0.75},
	{name: "nytimes-stream", kind: kindStream, dataset: "nytimes", tailP: 0.75},
	{name: "twitter-serve", kind: kindChunked, dataset: "twitter", tailP: 0.99},
}

// minOps is the number of timed ops op_tail_ms needs: minBeyondTail
// of them beyond the tail percentile.
func (w workload) minOps() int {
	return int(math.Ceil(float64(minBeyondTail)/(1-w.tailP) - 1e-9))
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale sizes the generated inputs.
type scale struct {
	// records is the record count of each batch workload.
	records map[string]int
	// readRecords is the number of records a batch read op validates.
	readRecords int
	// The serve workload: tenants, each with batches × batchRecords
	// records spread over `partitions` partitions, validate requests of
	// validateRecords records, and unseenBatches batches that no tenant
	// holds at the start; each tenant is sent each of them at most once.
	tenants, batches, batchRecords, partitions, validateRecords, unseenBatches int
	// coldStarts is the number of fresh child processes per workload
	// whose time to the first answered op makes up setup_s.
	coldStarts int
	// traceReps is the number of traced replays of an op; serveProbe
	// the number of ingests of the traced serve replay.
	traceReps, serveProbe int
}

var (
	fullScale = scale{
		records:     map[string]int{"github-file": 3000, "wikidata-bytes": 1500, "nytimes-stream": 2000},
		readRecords: 100,
		tenants:     32, batches: 4, batchRecords: 200, partitions: 4, validateRecords: 100, unseenBatches: 32,
		coldStarts: 5, traceReps: 7, serveProbe: 16,
	}
	quickScale = scale{
		records:     map[string]int{"github-file": 100, "wikidata-bytes": 100, "nytimes-stream": 100},
		readRecords: 20,
		tenants:     4, batches: 4, batchRecords: 20, partitions: 4, validateRecords: 10, unseenBatches: 4,
		coldStarts: 1, traceReps: 1, serveProbe: 4,
	}
)

// generate writes the workload's inputs for seed into dir.
func generate(ctx context.Context, w workload, dir string, seed int64, sc scale) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if w.kind == kindChunked {
		return generateServe(ctx, w, dir, seed, sc)
	}
	g, err := dataset.New(w.dataset)
	if err != nil {
		return err
	}
	return writeFile(filepath.Join(dir, recordsFile), dataset.NDJSON(g, sc.records[w.name], seed))
}

// recordsFile holds a batch workload's records inside its input dir.
const recordsFile = "records.ndjson"

// writeFile writes data to path, reporting the close error too.
func writeFile(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// firstLines returns the first n lines of an NDJSON file, without
// their newlines.
func firstLines(path string, n int) (out [][]byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for len(out) < n && sc.Scan() {
		out = append(out, bytes.Clone(sc.Bytes()))
	}
	return out, sc.Err()
}

// splitRecords cuts NDJSON into batches of per records each.
func splitRecords(data []byte, per int) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		end, n := 0, 0
		for n < per && end < len(data) {
			i := bytes.IndexByte(data[end:], '\n')
			if i < 0 {
				end = len(data)
			} else {
				end += i + 1
			}
			n++
		}
		out = append(out, data[:end])
		data = data[end:]
	}
	return out
}

// digest fingerprints an op's output so a cold start can be checked
// against the long-lived child's first op.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// accounting collects what a child measures while timed: op samples
// and the process-wide costs the runtime.* metrics divide by them.
type accounting struct {
	Attempted, Failed int
	Failures          []string
	// Op and Read are latency samples in ms; Peak holds peak resident
	// sets in MiB, one per batch op or per serve round.
	Op, Read, Peak []float64
	// Records counts records processed by timed ops; Timed is the time
	// they took (the sum of op times for batch workloads, the wall of
	// the rounds for the serve workload).
	Records int64
	Timed   time.Duration
	CPU     time.Duration
	// Alloc, Mallocs and GCs are MemStats deltas over the timed ops;
	// GCs excludes the forced collections between batch reps.
	Alloc, Mallocs, GCs uint64
}

// maxFailures caps the failure messages a child keeps.
const maxFailures = 8

// fail records a failed op.
func (a *accounting) fail(format string, args ...any) {
	a.Failed++
	if len(a.Failures) < maxFailures {
		a.Failures = append(a.Failures, fmt.Sprintf(format, args...))
	}
}

// merge adds b's counts and samples to a.
func (a *accounting) merge(b *accounting) {
	a.Attempted += b.Attempted
	a.Failed += b.Failed
	a.Failures = append(a.Failures, b.Failures...)
	if len(a.Failures) > maxFailures {
		a.Failures = a.Failures[:maxFailures]
	}
	a.Op = append(a.Op, b.Op...)
	a.Read = append(a.Read, b.Read...)
	a.Peak = append(a.Peak, b.Peak...)
	a.Records += b.Records
	a.Timed += b.Timed
	a.CPU += b.CPU
	a.Alloc += b.Alloc
	a.Mallocs += b.Mallocs
	a.GCs += b.GCs
}

// memDelta adds the allocation and collection counts between two
// MemStats readings.
func (a *accounting) memDelta(before, after *runtime.MemStats) {
	a.Alloc += after.TotalAlloc - before.TotalAlloc
	a.Mallocs += after.Mallocs - before.Mallocs
	a.GCs += uint64(after.NumGC-before.NumGC) - uint64(after.NumForcedGC-before.NumForcedGC)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime returns the user plus system CPU time of this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB reads this process's peak resident set (VmHWM) since it
// started or since the last resetPeakRSS.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			var kib int64
			if _, err := fmt.Sscanf(string(bytes.TrimSpace(rest)), "%d kB", &kib); err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return float64(kib) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts this process's peak resident set from its
// current resident set (Linux clear_refs).
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
