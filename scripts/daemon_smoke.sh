#!/bin/sh
# daemon_smoke.sh — end-to-end smoke test of the dsed daemon: build it,
# start it on a scratch port, run an implementation check over HTTP, check
# the same systems at another eps (which must be served from the
# memoization cache), resend the first check (which must be served from the
# answer store), and fetch the metrics snapshot. Fails if any request does
# not return 200, if the second check produced no cache hits, or if the
# resend produced no answer-store hit.
set -eu

PORT="${DSED_PORT:-18432}"
BASE="http://127.0.0.1:$PORT"
BIN="${TMPDIR:-/tmp}/dsed-smoke.$$"

go build -o "$BIN" ./cmd/dsed

"$BIN" -addr "127.0.0.1:$PORT" &
PID=$!
trap 'kill "$PID" 2>/dev/null; rm -f "$BIN"' EXIT

# Wait for the daemon to come up.
i=0
until curl -sf "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "daemon-smoke: dsed did not come up on $BASE" >&2
        exit 1
    fi
    sleep 0.1
done

# The 0.3 coin's masses are not dyadic, so the check's f-dists take the
# tree route, whose answers the cache keeps (a dyadic check is answered on
# the state-collapsed DAG and never reaches the cache). The same check at
# another eps is another request, so the answer store cannot serve it, but
# it asks the same f-dist questions, so the cache can.
BODY='{"left":"coin:biased:x:0.3","right":"coin:fair:x","envs":["coin:env:x"],"eps":0.25,"q1":3}'
OTHER='{"left":"coin:biased:x:0.3","right":"coin:fair:x","envs":["coin:env:x"],"eps":0.3,"q1":3}'

# counter <name> — print a counter of the metrics snapshot ("" if absent).
counter() {
    curl -sf "$BASE/v1/metrics" | sed -n "s/.*\"$1\": *\([0-9][0-9]*\).*/\1/p" | head -n1
}

code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/check" -d "$BODY")
[ "$code" = "200" ] || { echo "daemon-smoke: first check returned $code" >&2; exit 1; }

code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/check" -d "$OTHER")
[ "$code" = "200" ] || { echo "daemon-smoke: second check returned $code" >&2; exit 1; }

hits=$(counter 'engine\.cache\.hits')
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
    echo "daemon-smoke: no cache hits after re-checking the systems at another eps (hits=${hits:-absent})" >&2
    exit 1
fi

code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/check" -d "$BODY")
[ "$code" = "200" ] || { echo "daemon-smoke: resent check returned $code" >&2; exit 1; }

answers=$(counter 'engine\.answers\.hits')
if [ -z "$answers" ] || [ "$answers" -eq 0 ]; then
    echo "daemon-smoke: no answer-store hit after an identical resend (hits=${answers:-absent})" >&2
    exit 1
fi

echo "daemon-smoke: ok (cache hits: $hits, answer-store hits: $answers)"
