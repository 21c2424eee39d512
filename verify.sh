#!/bin/sh
# verify.sh — the tier-1 gate. Everything CI runs, runnable locally.
#
#   ./verify.sh          build + vet + repolint + tests (with -race),
#                        then vet + tests of the bench module
#   ./verify.sh -norace  same, but skip the race detector (slow machines)
#
# Exits non-zero on the first failure. See docs/ANALYSIS.md for what
# repolint checks and how to suppress a finding.
set -eu

cd "$(dirname "$0")"

race="-race"
if [ "${1:-}" = "-norace" ]; then
    race=""
fi

echo '>> go build ./...'
go build ./...

echo '>> go vet ./...'
go vet ./...

# -stats prints per-analyzer finding counts and wall time to stderr,
# so a slow or newly noisy analyzer is visible in every log.
echo '>> go run ./cmd/repolint -stats ./...'
go run ./cmd/repolint -stats ./...

echo ">> go test ${race} ./..."
# shellcheck disable=SC2086 # race is intentionally empty or one flag
go test ${race} ./...

# The chaos suite stresses the engine's retry/quarantine
# concurrency, so it always runs under the race detector — even when
# -norace skipped it for the bulk of the suite.
if [ -z "${race}" ]; then
    echo '>> go test -race ./internal/chaos'
    go test -race ./internal/chaos
fi

# The benchmark harness is its own module (bench/go.mod) that compiles
# against the library's internal packages, so a library change that
# breaks it must fail here, not when the benchmark next runs.
echo '>> (cd bench && go vet ./... && go test ./...)'
(cd bench && go vet ./... && go test ./...)

echo '>> verify.sh: all checks passed'
