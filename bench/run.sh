#!/usr/bin/env bash
# Builds racebench from the checkout this script lives in and runs it from
# the checkout root with the given flags, e.g.
#
#   bash bench/run.sh --workload sharing-serial --seed 42 --seconds 20 --trace 0
#   bash bench/run.sh -seed 42              # all four workloads
#
# Every file the build writes (Go build cache, module cache, temporary
# files, the binary) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/bench" && go build -o "$build/racebench" ./cmd/racebench)
cd "$root"
exec "$build/racebench" "$@"
