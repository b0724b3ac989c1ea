#!/usr/bin/env bash
# Builds the benchmark, and with it the program it drives, from this
# checkout's sources, then runs it from the checkout root:
#
#   bash tsbench/run.sh --workload history-reads --seed 1 --seconds 10 --trace 0
#
# Build caches and run data stay under .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd tsbench && go build -o "$build/tsbench" .)
exec "$build/tsbench" "$@"
