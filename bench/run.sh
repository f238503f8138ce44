#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the benchmark from the
# checkout's own source, then run it with the arguments given.
#
# Everything the build writes stays inside the checkout: the binary, the
# Go build cache and the compiler's scratch space all live under
# .bench_build/, so the first run of a checkout pays for a cold build and
# later runs reuse it.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local \
	go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
