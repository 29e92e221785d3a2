#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout, keeping every
# file the build and the run write (Go build cache, temp dirs, the worker
# binary, run dirs) inside the checkout, under .bench_build/.
#
#   bash benchmark/run.sh --workload lu_recovery --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
