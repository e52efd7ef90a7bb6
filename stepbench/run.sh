#!/usr/bin/env bash
# Builds the step benchmark from source and runs it with the given flags,
# e.g. `bash stepbench/run.sh --workload mw_walk --seed 1 --seconds 20 --trace 0`
# from the repository root. Everything the build and the run write stays in
# .bench_build/ under the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mkdir -p "$build/gocache" "$build/gotmp"
# Keep the toolchain's caches, temporary files and its config/telemetry
# directory (under XDG_CONFIG_HOME) inside the build directory too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$build/stepbench" .) >&2
exec "$build/stepbench" "$@"
