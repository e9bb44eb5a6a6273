#!/usr/bin/env bash
# Records a result set: every workload of BENCHMARK.json once per seed, each
# in its own process at the benchmark's run length, appending each run's
# record (the line bench prints before its summary) to OUT. A workload's
# runs are consecutive, so slow drifts of the host's speed fall between
# workloads rather than inside one workload's runs.
#
#   bash bench/record.sh OUT SEED...          # untraced runs
#   TRACE=1 bash bench/record.sh OUT SEED...  # traced runs
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: bash bench/record.sh OUT SEED..." >&2
  exit 2
fi
out="$1"
shift
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
spec="$here/../BENCHMARK.json"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$spec")"
workloads="$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$spec")"

for w in $workloads; do
  for seed in "$@"; do
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "${TRACE:-0}" \
      | tail -n 2 | head -n 1 >>"$out"
  done
done
