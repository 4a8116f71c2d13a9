#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# BENCHMARK.json names this script as its command. Everything the build
# leaves behind (Go build cache, temporary files, go's own config and
# counters, the binary) stays in .bench_build/ at the root of the
# checkout; nothing outside the checkout is written.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
go build -C "$here" -o "$build/stellar-benchmark" .
exec "$build/stellar-benchmark" "$@"
