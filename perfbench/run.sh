#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload offload --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, binary) goes under .bench_build in the current directory, so the
# run touches nothing outside the checkout. Build output goes to standard
# error; standard output carries only the benchmark's report.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOTELEMETRY=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
