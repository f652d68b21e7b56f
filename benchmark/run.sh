#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# it with the given arguments. Run it from the root of the checkout:
#
#   bash benchmark/run.sh --workload trap-mix --seed 1 --seconds 12 --trace 0
#
# Every build product, the Go build cache included, stays in .bench_build/ at
# the root of the checkout, and the toolchain is kept off the network. Without
# the govfm sources beside it the build fails and nothing is printed on stdout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/benchmark" && go build -o "$build/govfm-benchmark" .)
exec "$build/govfm-benchmark" "$@"
