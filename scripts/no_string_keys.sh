#!/bin/sh
# no_string_keys.sh — representation-boundary guard for the interned
# measure core (ROADMAP item 2).
#
# The measure kernels' hot structures are slice-indexed by dense intern
# IDs; canonical strings exist only at the API/codec/fingerprint boundary.
# This check keeps it that way: string-keyed (and State-keyed) maps are
# banned outright from the kernel files, and allowed in the measure's view
# layer only on lines explicitly annotated `boundary-ok`.
#
# Exit 0 when clean; prints each offending line and exits 1 otherwise.

set -eu
cd "$(dirname "$0")/.."

fail=0

# Kernel files: no string-keyed maps at all.
for f in internal/sched/dag.go internal/sched/parallel.go internal/sched/steptable.go; do
    if grep -n 'map\[string\]\|map\[psioa\.State\]' "$f"; then
        echo "no_string_keys: $f: string-keyed map in an interned kernel file" >&2
        fail=1
    fi
done

# Boundary file: string-keyed maps only on boundary-ok annotated lines.
f=internal/sched/execmeasure.go
if grep -n 'map\[string\]\|map\[psioa\.State\]' "$f" | grep -v 'boundary-ok'; then
    echo "no_string_keys: $f: unannotated string-keyed map (add boundary-ok only for API/codec views)" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "no_string_keys: kernels clean"
