package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"
)

// warmups is the number of ops each long-lived child runs, checks and
// discards before any clock starts.
const warmups = 2

// childConfig is what a child process needs beyond its workload.
type childConfig struct {
	scale scale
	seed  int64
	// corruptOracle flips a byte of every oracle, so a run must report
	// failed ops: the test that verification is not vacuous.
	corruptOracle bool
}

// A session is one workload running in its own child process: opened
// (the program's set-up), warmed, driven through timed rounds, then
// finished and optionally replayed under the tracer.
type session interface {
	// digest fingerprints the first op's output; a cold start must
	// reproduce it.
	digest() string
	warm(ctx context.Context, dir string, cfg childConfig) error
	// round runs ops until keepGoing says stop.
	round(ctx context.Context, budget time.Duration, minOps int)
	finish(ctx context.Context) childResult
	replay(ctx context.Context, tr *tracer, outDir string) (map[string]float64, error)
	close() error
}

func openSession(ctx context.Context, w workload, dir string, cfg childConfig) (session, error) {
	if w.kind == kindChunked {
		return openServe(ctx, dir, cfg)
	}
	return openBatch(ctx, w, dir, cfg)
}

// childResult is a child's report at the end of the run.
type childResult struct {
	accounting
	// Layers holds the per-layer metrics of the traced replay.
	Layers map[string]float64 `json:",omitempty"`
}

// command is one instruction from the parent: run ops for Budget (and
// on until the run has MinOps timed ops), or finish (and replay traced
// with Trace set).
type command struct {
	Op     string
	Budget time.Duration
	MinOps int
	Trace  bool
}

// overrun caps how far past its budget a round may run to reach its op
// floor, as a multiple of the budget: a run on a slow host still
// collects the samples its tail percentile needs, and a broken one
// still ends.
const overrun = 4

// keepGoing reports whether a round that started at start runs another
// op: until its budget is spent, then, within the overrun, while the
// run has fewer than minOps timed ops.
func keepGoing(start time.Time, budget time.Duration, ops, minOps int) bool {
	elapsed := time.Since(start)
	return elapsed < budget || (ops < minOps && elapsed < overrun*budget)
}

// ready is a child's first message.
type ready struct{ Digest string }

// runChild serves the parent's commands for one workload until finish.
func runChild(ctx context.Context, w workload, dir, outDir string, cfg childConfig, in io.Reader, out io.Writer) (err error) {
	s, err := openSession(ctx, w, dir, cfg)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, s.close()) }()
	if err := s.warm(ctx, dir, cfg); err != nil {
		return err
	}
	enc, dec := json.NewEncoder(out), json.NewDecoder(in)
	if err := enc.Encode(ready{Digest: s.digest()}); err != nil {
		return err
	}
	for {
		var cmd command
		if err := dec.Decode(&cmd); err != nil {
			return fmt.Errorf("reading command: %w", err)
		}
		switch cmd.Op {
		case "round":
			s.round(ctx, cmd.Budget, cmd.MinOps)
			if err := enc.Encode(struct{}{}); err != nil {
				return err
			}
		case "finish":
			res := s.finish(ctx)
			if cmd.Trace {
				var err error
				tr := newTracer()
				if res.Layers, err = s.replay(ctx, tr, outDir); err != nil {
					return fmt.Errorf("traced replay: %w", err)
				}
				if err := writeChromeTrace(filepath.Join(outDir, "trace-"+w.name+".json"), tr.spans); err != nil {
					return err
				}
			}
			return enc.Encode(res)
		default:
			return fmt.Errorf("unknown command %q", cmd.Op)
		}
	}
}

// runCold is one cold start: open the session — the set-up a user of
// the workload waits for — report the first op's digest, and exit.
func runCold(ctx context.Context, w workload, dir string, cfg childConfig, out io.Writer) error {
	s, err := openSession(ctx, w, dir, cfg)
	if err != nil {
		return err
	}
	return errors.Join(json.NewEncoder(out).Encode(ready{Digest: s.digest()}), s.close())
}
