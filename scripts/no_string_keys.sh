#!/bin/sh
# no_string_keys.sh — representation-boundary guard for the interned
# measure core.
#
# The measure kernels' hot structures are slice-indexed by dense IDs, and
# an execution measure holds its expansion tree as ID records (nodes and
# steps); canonical strings exist only at the API/codec/fingerprint
# boundary. This check keeps it that way: string-keyed (and State-keyed)
# maps are banned outright from the kernel files, the measure's views
# included.
#
# Exit 0 when clean; prints each offending line and exits 1 otherwise.

set -eu
cd "$(dirname "$0")/.."

fail=0

for f in internal/sched/dag.go internal/sched/execmeasure.go internal/sched/parallel.go internal/sched/steptable.go; do
    if grep -n 'map\[string\]\|map\[psioa\.State\]' "$f"; then
        echo "no_string_keys: $f: string-keyed map in an interned kernel file" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "no_string_keys: kernels clean"
