#!/usr/bin/env bash
# Builds the benchmark (perfbench/, a module of its own that imports the
# repository's packages through a replace directive) from the checkout's
# sources, then runs it from the repository root with the arguments given:
#
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 25 --trace 0
#
# The build cache, temporary files, the binary and every output stay under
# .bench_build/perfbench/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
