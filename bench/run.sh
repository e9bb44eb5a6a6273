#!/usr/bin/env bash
# Builds cmd/dsed and the benchmark from this checkout, then runs one
# workload in a fresh process:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) of the checkout, Go's build
# cache included.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$out/bin/dsed" ./cmd/dsed
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" -dsed "$out/bin/dsed" -workdir "$out" "$@"
