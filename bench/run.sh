#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. BENCHMARK.json names this script as its command:
#
#   bash bench/run.sh --workload heart-seq --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, its
# own configuration) is pointed into .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# The commit goes into every output and trace file. -buildvcs=false (the
# checkout may not be a git repository) keeps the toolchain from stamping
# it, so it is passed in; git may not look above the checkout for one.
commit=unknown
if rev=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null); then
  commit=$rev
  git diff --quiet HEAD 2>/dev/null || commit=$rev-dirty
fi
go build -C bench -ldflags "-X main.commit=$commit" -o "$build/bench" .
exec "$build/bench" "$@"
