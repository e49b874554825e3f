#!/usr/bin/env bash
# Builds the assembly benchmark from the sources of the checkout it is run
# in, then runs it. Run from the repository root:
#
#   bash asmbench/run.sh --workload human-p32 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C asmbench build -o "$build/asmbench" . >&2
exec "$build/asmbench" -work "$build" "$@"
