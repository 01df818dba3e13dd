#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload drift-mixed --seed 1 --seconds 15 --trace 0
# Run from the repository root. The Go build cache, temporary files and the
# binary stay under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
bin="$build/perfbench.$$"
trap 'rm -f "$bin"' EXIT
go build -C perfbench -o "$bin" .
"$bin" "$@"
