#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. Everything the Go toolchain writes — build cache,
# temporary files, the binary — stays under .bench_build at the root of
# the checkout, and nothing is fetched from the network. The build is
# incremental: after the first run it costs a fraction of a second, and
# it happens before the benchmark starts timing anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root" # trace files go to bench/out, relative to the root
exec "$build/bench" "$@"
