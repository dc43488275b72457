#!/usr/bin/env bash
# Builds progqoi's benchmark from source and runs it with the arguments
# given. Run from the repository root:
#
#   bash benchmark/run.sh --workload local-ge6 --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache and every other file the Go tool writes
# stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/benchmark" && go build -o "$build/progqoi-benchmark" .) >&2
exec "$build/progqoi-benchmark" "$@"
