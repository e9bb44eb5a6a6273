#!/bin/sh
# obs_smoke.sh — end-to-end smoke test of the telemetry-v2 surface:
#
#   1. dsecheck -explain -trace: the run report must print per-shard work
#      counts and the cache hit ratio, and every JSONL trace event must
#      carry a kind from the documented event-kind table
#      (docs/OBSERVABILITY.md), and every span.begin must have exactly
#      one span.end with the same span id.
#   2. dsed: /v1/metrics?format=prom must pass scripts/prom_check.sh and
#      /v1/debug must answer a JSON introspection snapshot with a positive
#      heap_bytes.
set -eu

TMP="${TMPDIR:-/tmp}/obs-smoke.$$"
mkdir -p "$TMP"
PORT="${DSED_PORT:-18433}"
BASE="http://127.0.0.1:$PORT"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT

# --- 1. dsecheck -explain with a trace ---------------------------------
go build -o "$TMP/dsecheck" ./cmd/dsecheck
"$TMP/dsecheck" -left coin:biased:x:0.625 -right coin:fair:x -env coin:env:x \
    -eps 0.125 -q1 3 -workers 4 -explain -trace "$TMP/trace.jsonl" > "$TMP/explain.out"

for frag in 'run report (check)' 'hit-ratio=' 'shard 0' 'states'; do
    grep -q "$frag" "$TMP/explain.out" || {
        echo "obs-smoke: -explain output missing '$frag':" >&2
        cat "$TMP/explain.out" >&2
        exit 1
    }
done

# Every trace line must be JSON with a documented event kind.
[ -s "$TMP/trace.jsonl" ] || { echo "obs-smoke: empty trace" >&2; exit 1; }
awk '
    BEGIN {
        split("span.begin span.end sched.step sched.halt explore.state " \
              "explore.transition insight.probe implements.pair " \
              "emulation.round experiment sched.shard", ks, " ")
        for (i in ks) known[ks[i]] = 1
        bad = 0
    }
    {
        if (match($0, /"kind":"[^"]*"/) == 0) {
            print "obs-smoke: trace line " NR " has no kind: " $0; bad = 1; next
        }
        kind = substr($0, RSTART + 8, RLENGTH - 9)
        if (!(kind in known)) {
            print "obs-smoke: undocumented event kind \"" kind "\" at line " NR
            bad = 1
        }
    }
    END { if (bad) exit 1 }
' "$TMP/trace.jsonl"

# Every span.begin has exactly one span.end with the same span id: each
# timed call ends once, on every exit.
awk '
    /"kind":"span\.(begin|end)"/ {
        if (match($0, /"span":[0-9]+/) == 0) {
            print "obs-smoke: span event without an id at line " NR ": " $0; bad = 1; next
        }
        id = substr($0, RSTART + 7, RLENGTH - 7)
        if ($0 ~ /"kind":"span\.begin"/) begins[id]++; else ends[id]++
    }
    END {
        for (id in begins) if (ends[id] != 1 || begins[id] != 1) {
            print "obs-smoke: span " id " has " begins[id] " begin(s) and " ends[id] + 0 " end(s)"; bad = 1
        }
        for (id in ends) if (!(id in begins)) {
            print "obs-smoke: span " id " ends without a begin"; bad = 1
        }
        if (bad) exit 1
    }
' "$TMP/trace.jsonl"

# --- 2. dsed prom + debug ----------------------------------------------
go build -o "$TMP/dsed" ./cmd/dsed
"$TMP/dsed" -addr "127.0.0.1:$PORT" &
PID=$!

i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "obs-smoke: dsed did not come up on $BASE" >&2
        exit 1
    fi
    sleep 0.1
done

# Push one job through so the metric families are populated.
curl -sf -X POST "$BASE/v1/check" \
    -d '{"left":"coin:biased:x:0.625","right":"coin:fair:x","envs":["coin:env:x"],"eps":0.125,"q1":3}' \
    > "$TMP/check.json"
grep -q '"run_report"' "$TMP/check.json" || {
    echo "obs-smoke: daemon check response has no run_report" >&2
    exit 1
}

ct=$(curl -sf -o "$TMP/metrics.prom" -w '%{content_type}' "$BASE/v1/metrics?format=prom")
[ "$ct" = "text/plain; version=0.0.4; charset=utf-8" ] || {
    echo "obs-smoke: prom content type: $ct" >&2
    exit 1
}
sh scripts/prom_check.sh "$TMP/metrics.prom"
grep -q '^dse_dsed_http_requests ' "$TMP/metrics.prom" || {
    echo "obs-smoke: prom output missing dse_dsed_http_requests" >&2
    exit 1
}

curl -sf "$BASE/v1/debug" > "$TMP/debug.json"
for field in '"workers"' '"uptime_ms"' '"cache_shards"'; do
    grep -q "$field" "$TMP/debug.json" || {
        echo "obs-smoke: /v1/debug missing $field:" >&2
        cat "$TMP/debug.json" >&2
        exit 1
    }
done
# The heap figure is a positive byte count.
grep -Eq '"heap_bytes": *[1-9]' "$TMP/debug.json" || {
    echo "obs-smoke: /v1/debug has no positive heap_bytes:" >&2
    cat "$TMP/debug.json" >&2
    exit 1
}

echo "obs-smoke: ok"
