#!/usr/bin/env bash
# Entry point of the cutfit benchmark (BENCHMARK.json "command").
#
# Builds the benchmark program and the two binaries it drives (cutfitd,
# cutfit-worker) from source into <checkout>/.bench_build/bin, then runs the
# benchmark from this directory with whatever arguments were given. Go's
# build cache, module cache and temporary files are kept inside .bench_build/
# as well, so nothing is read or written outside the checkout (and no $HOME
# is needed); after the first run a build is a sub-second no-op.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
# Neither module has a dependency outside this repository: never reach for
# the network or another toolchain.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root" && go build -o "$build/bin/" ./cmd/cutfitd ./cmd/cutfit-worker)
(cd "$here" && go build -o "$build/bin/cutfit-benchmark" .)

cd "$here"
exec "$build/bin/cutfit-benchmark" "$@"
