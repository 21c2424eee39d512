// Command bench is the repository's benchmark: it measures the public
// inference and serving APIs end to end on four workloads, checks every
// output, and with -trace 1 replays each workload through the layers
// underneath to say where the time goes. bench/README.md explains the
// workloads, the metrics and how to read them.
//
// Usage (from the repository root; run.sh builds this module and keeps
// every build and output file under .bench_build):
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	bash bench/run.sh -calibrate N [-seconds S]
//	bash bench/run.sh -quick
//
// Each workload runs in a child process of its own for the whole run;
// the parent drives the children round-robin in short rounds, so every
// workload's samples span the run, and times a fixed host kernel at the
// start and end of every round. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics:
// the end-to-end metrics with -trace 0, the per-layer ones with
// -trace 1. A run with a failed op prints it with correct false and
// exits 1; a run that cannot measure exits 1 without it.
package main

import (
	"context"
	"os"
	"os/signal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}
