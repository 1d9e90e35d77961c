#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload bsa-dense --seed 1 --seconds 12 --trace 0
#
# Run from the root of a checkout. Everything the build and the run write
# (Go caches, temporary files, the binary, span dumps, the schedd WAL) stays
# under .bench_build in that checkout; the build never uses the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
