// Command repolint runs this repository's custom static-analysis suite
// (internal/analyze): seven stdlib-only analyzers guarding the
// determinism, immutability, purity and concurrency invariants the
// schema inference pipeline is built on — three of them
// interprocedural, consuming call-graph function summaries. See
// docs/ANALYSIS.md for what each analyzer checks and how to suppress a
// finding.
//
// Usage:
//
//	repolint [-json | -sarif] [-stats] [-list] [packages...]
//
// Packages are directory patterns relative to the working directory
// (default "./..."); a trailing /... recurses. The exit status is 0
// when no findings remain after suppression, 1 when findings are
// reported, and 2 on usage or load errors — the same convention as go
// vet, so CI can tell "dirty tree" from "broken run". The convention
// holds for the built binary only: `go run` reports any non-zero exit
// of the program it ran as its own exit status 1.
//
// -json emits the findings as a JSON array (start and end positions,
// analyzer doc anchor). -sarif emits a SARIF 2.1.0 log for
// code-scanning upload. -stats prints per-analyzer finding counts and
// wall time to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analyze"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array instead of text")
	sarifOut := fs.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log instead of text")
	stats := fs.Bool("stats", false, "print per-analyzer finding counts and wall time to stderr")
	list := fs.Bool("list", false, "list the registered analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "repolint: -json and -sarif are mutually exclusive")
		return 2
	}

	if *list {
		for _, a := range analyze.All() {
			kind := "local"
			if a.NeedsSummaries {
				kind = "interprocedural"
			}
			fmt.Fprintf(stdout, "%-14s %-16s %s\n", a.Name, kind, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// Root the loader at the first pattern so repolint works from any
	// directory inside the module (and, in tests, on other modules).
	root := patternDir(patterns[0])
	loader, err := analyze.NewLoader(root)
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "repolint:", err)
		return 2
	}
	diags, perAnalyzer := analyze.CheckStats(pkgs, analyze.All())

	switch {
	case *jsonOut:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analyze.Diagnostic{}
		}
		for i := range diags {
			diags[i].File = relPath(diags[i].File)
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
	case *sarifOut:
		absRoot, err := filepath.Abs(root)
		if err != nil {
			absRoot = root
		}
		if err := analyze.WriteSARIF(stdout, diags, absRoot); err != nil {
			fmt.Fprintln(stderr, "repolint:", err)
			return 2
		}
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, relativize(d))
		}
		if len(diags) > 0 {
			fmt.Fprintf(stderr, "repolint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
	}

	if *stats {
		for _, s := range perAnalyzer {
			fmt.Fprintf(stderr, "repolint: %-14s %3d finding(s) %10.2fms\n",
				s.Name, s.Findings, float64(s.Elapsed.Microseconds())/1000)
		}
	}

	if len(diags) > 0 {
		return 1
	}
	return 0
}

// patternDir strips a trailing /... so the loader can be rooted at the
// pattern's directory.
func patternDir(pat string) string {
	dir := strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
	if dir == "" {
		return "."
	}
	return dir
}

// relPath renders a path relative to the working directory when
// possible, keeping output stable across checkouts.
func relPath(name string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return name
}

// relativize renders a diagnostic with a working-directory-relative
// path.
func relativize(d analyze.Diagnostic) string {
	d.Pos.Filename = relPath(d.Pos.Filename)
	return d.String()
}
