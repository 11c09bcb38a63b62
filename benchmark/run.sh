#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (inside the checkout,
# so nothing is written elsewhere) and runs it with the caller's arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$out/neobft-benchmark" .)
exec "$out/neobft-benchmark" "$@"
