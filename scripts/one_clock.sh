#!/bin/sh
# one_clock.sh — guard for the one timing mechanism of the pipeline.
#
# A timed layer (a measure kernel, an exploration, an f-dist, a relation
# check, a pool map, an experiment) is timed by one obs.Call:
#
#     c := obs.Enter(ctx, obs.LayerMeasure, s.Name())
#     defer c.End()
#
# whose one clock read pair feeds the trace span, the layer's process
# histogram "<layer>.us" and the job meter's phase row, and whose Level
# method reports a kernel's shard rows to the trace and the meter alike.
# This check keeps it the only mechanism outside internal/obs:
#   - no obs.Begin( or obs.Time( (the separate span and histogram timers
#     it replaced);
#   - no obs.H("….us"): a layer's histogram is fed by its Call only;
#   - no meter from obs.MeterFrom used for .Call( or .Level(: phase and
#     shard rows reach the meter through the Call. MeterFrom stays legal
#     for the work and cache counters (Meter.Work, Meter.Cache).
#
# Exit 0 when clean; prints each offending line and exits 1 otherwise.

set -eu
cd "$(dirname "$0")/.."

fail=0
files=$(git ls-files '*.go' | grep -v '^internal/obs/' || true)

if [ -n "$files" ] && grep -nE 'obs\.(Begin|Time)\(' $files; then
    echo "one_clock: obs.Begin/obs.Time outside internal/obs (time the layer with obs.Enter)" >&2
    fail=1
fi

if [ -n "$files" ] && grep -nE 'obs\.H\("[^"]*\.us"\)' $files; then
    echo "one_clock: a .us histogram observed outside its Call (time the layer with obs.Enter)" >&2
    fail=1
fi

# A meter read from the context, chained or through the variable it was
# assigned to in the same file, must not charge phases or levels.
if [ -n "$files" ] && awk '
    FNR == 1 { split("", vars) }
    /MeterFrom\(/ {
        if ($0 ~ /MeterFrom\([^)]*\)\.(Call|Level)\(/) { print FILENAME ":" FNR ": " $0; bad = 1 }
        if (match($0, /[A-Za-z_][A-Za-z0-9_]*(, *[A-Za-z_][A-Za-z0-9_]*)* *:?= *obs\.MeterFrom\(/)) {
            lhs = substr($0, RSTART, RLENGTH)
            sub(/ *:?= *obs\.MeterFrom\($/, "", lhs)
            split(lhs, names, /, */)
            vars[names[1]] = 1
        }
        next
    }
    {
        for (v in vars) {
            if ($0 ~ ("(^|[^A-Za-z0-9_.])" v "\\.(Call|Level)\\(")) {
                print FILENAME ":" FNR ": " $0; bad = 1
            }
        }
    }
    END { exit bad ? 0 : 1 }
' $files; then
    echo "one_clock: a context meter charged with .Call/.Level (report through the layer's obs.Call)" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "one_clock: timing clean"
