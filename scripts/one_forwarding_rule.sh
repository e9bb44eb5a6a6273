#!/bin/sh
# one_forwarding_rule.sh — guard for the one forwarding rule of automaton
# views.
#
# An automaton that is another one seen with some actions reclassified or
# with extra structure (hiding, Atomic, the structured automata, the
# compositions that embed a product) says so with one method, Inner().
# psioa follows Inner to the product whose state table a walk reads and
# to the compatibility checker (psioa.CompatAt). This check keeps it the
# only rule:
#   - no compatibility probe (.(interface{ CompatAt(...) }) outside
#     internal/psioa: other code calls psioa.CompatAt;
#   - no sharedProduct identifier, the rule Inner replaced;
#   - no Inner() method on a wrapper that changes the action set or must
#     be walked through its own Trans (Renamed, InputEnabled,
#     Instrumented): such a wrapper is not a view.
#
# Exit 0 when clean; prints each offending line and exits 1 otherwise.

set -eu
cd "$(dirname "$0")/.."

fail=0

if grep -rn --include='*.go' 'interface{ *CompatAt(' . | grep -v '^\./internal/psioa/'; then
    echo "one_forwarding_rule: compatibility probe outside internal/psioa (call psioa.CompatAt)" >&2
    fail=1
fi

if grep -rnw --include='*.go' 'sharedProduct' .; then
    echo "one_forwarding_rule: sharedProduct is gone; a view returns what it views from Inner()" >&2
    fail=1
fi

if grep -rnE --include='*.go' 'func \([a-z]+ \*?(Renamed|InputEnabled|Instrumented)\) Inner\(' .; then
    echo "one_forwarding_rule: a wrapper that changes the action set or is walked through its Trans defines Inner()" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "one_forwarding_rule: views clean"
