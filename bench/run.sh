#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: the command BENCHMARK.json names. Everything the build
# writes (compiler cache, binary) stays under .bench_build in the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The toolchain's own scratch and per-user files, kept in the checkout too.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -buildvcs=false -o "$build/bench" .)
cd "$root"
# The report names the commit measured, when the checkout is a git repository.
BENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || true)
export BENCH_COMMIT
exec "$build/bench" "$@"
