#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Everything the Go toolchain and the benchmark write stays inside the
# checkout, under .bench_build/ (build cache, binary, scratch stores)
# and benchmark/out/ (span files of traced runs).
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --workload all --runs 3 --out a.json
#   bash benchmark/run.sh compare a.json b.json
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config" "$build/tmp"

# The toolchain the image bakes in, never a download; no module proxy
# (the module has no dependencies outside this repository).
(
  cd "$here"
  GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
  GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
    go build -o "$build/benchmark" .
)

cd "$root"
exec "$build/benchmark" "$@"
