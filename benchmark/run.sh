#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags; this is
# the "command" of ../BENCHMARK.json. Everything the build and the run write
# (Go build cache, the binary, temp files, the ingest data directory, span
# files) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -C "$here" -o "$out/ocht-benchmark" .
exec "$out/ocht-benchmark" "$@"
