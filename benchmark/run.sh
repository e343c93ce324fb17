#!/bin/bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload steady_comm --seed 7 --seconds 20 --trace 0
#
# The binary and the Go build cache go to .bench_build/ at the root of the
# checkout, and the benchmark runs from that root, so that nothing outside
# the checkout is written; the first build in a fresh checkout compiles the
# standard library too and takes about a minute.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go -C "$here" build -buildvcs=false -o "$build/ftbench" .
cd "$root"
exec "$build/ftbench" "$@"
