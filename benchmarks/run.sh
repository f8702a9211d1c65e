#!/bin/bash
# The command BENCHMARK.json names. Builds benchmarks/e2e from the sources
# of the checkout it is started in and runs it with the arguments given.
# The Go build cache and scratch space are kept under .bench_build/ so that
# nothing is written outside the checkout; the first build in a checkout
# therefore compiles the standard library too (about a minute on 2 CPUs).
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/e2e" ./benchmarks/e2e
exec "$build/e2e" "$@"
