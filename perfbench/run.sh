#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from the
# repository root:
#   bash perfbench/run.sh --workload tpch-power --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady -runs 10
# Everything built or written goes under .bench_build/ in the current
# directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
