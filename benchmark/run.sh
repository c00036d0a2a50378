#!/bin/bash
# Builds the benchmark from source into the checkout and runs it with
# the arguments given. Everything it writes (build cache, binary) stays
# under .bench_build in the checkout's root.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/thinc-benchmark" ./benchmark
exec "$build/thinc-benchmark" "$@"
