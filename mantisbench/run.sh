#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash mantisbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write (Go build cache, binary, CPU
# profiles, span files) stays under .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/trace"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
go -C "$root/mantisbench" build -o "$out/mantisbench" .
exec "$out/mantisbench" -out "$out" "$@"
