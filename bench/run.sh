#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (binary and Go build
# cache under .bench_build/, nothing outside the checkout is written) and runs
# it from the checkout's root. Arguments go to the binary: see main.go.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -out "$here/out" "$@"
