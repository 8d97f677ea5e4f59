#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload small-saturate --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs leave behind goes to .bench_build/ under
# the root (the Go build cache included), so nothing is written elsewhere.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --build-dir "$build" "$@"
