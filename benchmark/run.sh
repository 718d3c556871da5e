#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. Everything go
# writes — build cache, temporary files — stays inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
# go keeps its settings and telemetry counters under the user's config directory.
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local
cd "$root"
go build -C benchmark -o "$build/benchmark" .
exec "$build/benchmark" "$@"
