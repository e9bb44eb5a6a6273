#!/bin/sh
# one_route.sh — guard for the one exact route.
#
# Whether an exact image and its aggregates come from the state-collapsed
# DAG or from the expansion tree is decided in one place, insight.Exact,
# which checks and simulations both call (see docs/ENGINE.md, "Exact
# routes"). This check keeps the decision there: outside internal/insight
# and internal/sched, no non-test Go file
#   - asks for the depth-oblivious capability (sched.AsDepthOblivious),
#   - runs the DAG kernel (sched.MeasureDAGOpts, sched.MeasureDAGFold),
#   - or reads the DAG's exactness rule (.Dyadic()).
# E20 (internal/experiments/e20.go) compares the two kernels on purpose and
# is exempt.
#
# Exit 0 when clean; prints each offending line and exits 1 otherwise.

set -eu
cd "$(dirname "$0")/.."

files=$(git ls-files '*.go' | grep -v '_test\.go$' |
    grep -v -e '^internal/insight/' -e '^internal/sched/' -e '^internal/experiments/e20\.go$' || true)

if [ -n "$files" ] && grep -nE 'sched\.(AsDepthOblivious|MeasureDAGOpts|MeasureDAGFold)\(|\.Dyadic\(\)' $files; then
    echo "one_route: an exact route decided outside insight.Exact (call insight.Exact or engine.Cache.Exact)" >&2
    exit 1
fi
echo "one_route: one exact route"
