#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The benchmark is a Go module of its own (benchmark/go.mod) that replaces
# module `cyclosa` with the checkout around it, so it always measures the
# code it sits in. Everything the build leaves behind — the binary, the Go
# build cache, temporary files — stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"

# GOTOOLCHAIN=local and GOPROXY=off: the build needs nothing from the
# network. XDG_CONFIG_HOME keeps the go command's own telemetry counters
# inside the checkout too.
GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config" \
GOTOOLCHAIN=local GOPROXY=off \
	go build -C benchmark -o "$build/cyclosa-benchmark" .

exec "$build/cyclosa-benchmark" "$@"
