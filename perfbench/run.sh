#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, temporary files) stays under .bench_build/.
set -euo pipefail

here=$(pwd)
build="$here/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --root "$here" "$@"
