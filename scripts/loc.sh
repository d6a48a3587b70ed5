#!/usr/bin/env bash
# loc.sh — non-test Go lines (wc -l: comments and blank lines count) of the
# live runtime's layers, the budget ROADMAP item 2 ("one delivery plane, one
# runtime") is held to, and below the total, on a line of its own and not part
# of it, of internal/core (ROADMAP item 1's target for the detector). With a
# git ref as argument, counts that commit instead of the working tree.
#
# The working tree's total is a ratchet: the script exits 1 when it exceeds
# the number in scripts/loc_budget. A change that needs more lines raises the
# budget in its own diff; one that removes lines should lower it.
set -euo pipefail
cd "$(dirname "$0")/.."
ref=${1:-}

files() { # path: the non-test .go files under it, one a line
    if [ -n "$ref" ]; then
        git ls-tree -r --name-only "$ref" -- "$1"
    elif [ -d "$1" ]; then
        find "$1" -name '*.go'
    else
        echo "$1"
    fi | grep '\.go$' | grep -v '_test\.go$' | sort
}

lines() { # path: their summed line count
    files "$1" | while read -r f; do
        if [ -n "$ref" ]; then git show "$ref:$f"; else cat "$f"; fi
    done | wc -l
}

total=0
for path in internal/livenet internal/tenantplane internal/wire internal/replay live.go; do
    n=$(lines "$path")
    printf '%-22s %6d\n' "$path" "$n"
    total=$((total + n))
done
printf '%-22s %6d\n' total "$total"
printf '%-22s %6d\n' internal/core "$(lines internal/core)"
if [ -z "$ref" ]; then
    budget=$(cat scripts/loc_budget)
    if [ "$total" -gt "$budget" ]; then
        echo "loc.sh: total $total exceeds scripts/loc_budget ($budget)" >&2
        exit 1
    fi
fi
