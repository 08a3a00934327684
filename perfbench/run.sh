#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs one workload:
#
#   bash perfbench/run.sh --workload table1-flat --seed 1 --seconds 36 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the checkout root. The module replaces gpp with ../, so outside a full
# checkout the build fails and the script exits non-zero without a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
