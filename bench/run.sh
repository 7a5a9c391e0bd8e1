#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# from the repo root, keeping every build product inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
