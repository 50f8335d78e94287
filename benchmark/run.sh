#!/bin/bash
# The command BENCHMARK.json names. The benchmark is a module of its own
# (benchmark/go.mod): this builds it, keeping every by-product of the Go
# toolchain inside the checkout, and runs it from the checkout's root.
set -eu
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
