#!/usr/bin/env bash
# Builds the faultcast benchmark from the sources of this checkout and runs
# it with the given arguments. Every build and run artifact stays under
# .bench_build at the checkout root.
#
#   bash perfbench/run.sh --workload estimate-fixed --seed 1 --seconds 15 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=
go -C "$here" build -o "$build/perfbench" . >&2
cd "$root"
exec "$build/perfbench" "$@"
