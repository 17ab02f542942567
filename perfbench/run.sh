#!/usr/bin/env bash
# Builds the end-to-end training benchmark from source and runs it; every
# argument is passed on (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload offload --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the file-backed devices all live
# under .bench_build in the current directory.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GOPROXY=off
unset RATEL_THREADS RATEL_TUNE_PROFILE GOMAXPROCS
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --scratch "$build/run" "$@"
