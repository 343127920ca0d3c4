#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build output
# (binary and Go build cache) under .bench_build/ inside the checkout.
# BENCHMARK.json names this script as the command; the driver appends
# --workload/--seed/--seconds/--trace.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o ../.bench_build/dtbench .)
exec .bench_build/dtbench "$@"
