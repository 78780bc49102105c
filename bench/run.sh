#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the root of the checkout. Everything the build writes stays inside
# the checkout: the binary and Go's build cache go to .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$root/.bench_build/asibench" .)
exec "$root/.bench_build/asibench" -dir bench "$@"
