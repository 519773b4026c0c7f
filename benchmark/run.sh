#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Everything the go tool writes stays under .bench_build at the root of
# the checkout; the program itself writes only to benchmark/out.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$build/bin" "$build/tmp"
cd "$here"
go build -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" "$@"
