#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout:
#
#   bash perfbench/run.sh --workload sim-sync --seed 42 --seconds 20 --trace 0
#
# The toolchain's cache, temporary files and the traced run's spans and
# CPU profile all land under the build directory ($CARGO_TARGET_DIR,
# default .bench_build), so nothing is written outside the checkout.
set -euo pipefail

build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)
mkdir -p "$build/tmp" "$build/home" "$build/out"

export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build/out" "$@"
