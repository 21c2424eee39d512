#!/usr/bin/env bash
# Builds the benchmark (bench/, a module of its own that uses the
# repository's sources through a replace directive) and runs it with the
# given flags. Everything the build and the run write stays under
# .bench_build at the repository root: the Go build cache, the binary,
# generated inputs and traces.
#
#   bash bench/run.sh -workload github-file -seed 1 -seconds 20 -trace 0
#   bash bench/run.sh -quick
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config"

(
	cd "$root/bench"
	export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path" \
		GOMODCACHE="$build/go-path/pkg/mod" XDG_CONFIG_HOME="$build/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
	go build -o "$build/bench" .
) >&2
cd "$root"
exec "$build/bench" -out "$build/out" "$@"
