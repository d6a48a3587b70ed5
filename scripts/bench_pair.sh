#!/usr/bin/env bash
# bench_pair.sh <parent-ref> <workload|all> [pairs=10] — the paired,
# alternating runs a performance claim on this repository has to rest on.
#
# Unpacks <parent-ref> into a temporary directory, then runs `bench/run.sh
# --trace 0` on that copy and on this checkout (working tree included) in
# pairs: pair i uses seed BENCH_SEED0+i on both sides, and which side goes
# first alternates, so drift in the box's speed over the session lands on
# both. Each side builds and runs its own bench/ — what the driver does — so
# the comparison is only meaningful while the two agree on it. Prints, per
# metric, both medians and quartiles and the pairs each side won
# (scripts/pairstats).
#
# With `all` for the workload it does so for every workload BENCHMARK.json
# names, one table each, and ends with one line listing every (workload,
# metric) whose change-side median is worse than its bound allows or whose
# runs spread too widely to tell: the no-regression table a claim needs
# beside it.
#
# Environment: BENCH_SECONDS (default: run_seconds in BENCHMARK.json),
# BENCH_SEED0 (default 1), BENCH_PAIR_OUT (keep the per-run records there,
# under <workload>/ with `all`; default: a temporary directory, removed).
set -euo pipefail

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <parent-ref> <workload|all> [pairs=10]" >&2
    exit 2
fi
parent=$1 workload=$2 pairs=${3:-10}
cd "$(dirname "$0")/.."
seconds=${BENCH_SECONDS:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)}
seed0=${BENCH_SEED0:-1}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=${BENCH_PAIR_OUT:-$tmp/out}
mkdir -p "$tmp/parent" "$out"
out=$(cd "$out" && pwd)
git archive "$(git rev-parse --verify "$parent^{commit}")" | tar -x -C "$tmp/parent"

run_side() { # workload out side dir pair seed
    local dest="$2/$3-$5"
    mkdir -p "$dest"
    if ! (cd "$4" && bash bench/run.sh --workload "$1" --seed "$6" \
        --seconds "$seconds" --trace 0 --out "$dest") >"$dest/stdout.json" 2>"$dest/stderr.txt"; then
        echo "bench_pair: $3 run of $1 pair $5 failed; its output:" >&2
        cat "$dest/stderr.txt" >&2
        exit 1
    fi
}

run_pairs() { # workload out: the pairs, then the workload's table
    for ((i = 0; i < pairs; i++)); do
        seed=$((seed0 + i))
        if ((i % 2 == 0)); then
            order=(parent change)
        else
            order=(change parent)
        fi
        for side in "${order[@]}"; do
            dir=$PWD
            [ "$side" = parent ] && dir=$tmp/parent
            echo "$1 pair $i seed $seed: $side" >&2
            run_side "$1" "$2" "$side" "$dir" "$i" "$seed"
        done
    done
    go run ./scripts/pairstats BENCHMARK.json "$2" "$1"
}

if [ "$workload" != all ]; then
    run_pairs "$workload" "$out"
    exit
fi
flagged=
for w in $(go run ./scripts/pairstats BENCHMARK.json); do
    mkdir -p "$out/$w"
    run_pairs "$w" "$out/$w" | tee "$tmp/table"
    echo
    flagged+=$(awk -v w="$w" '/WORSE than the bound|unresolved/ { printf " %s/%s", w, $1 }' "$tmp/table")
done
echo "outside its bound or unresolved:${flagged:- none}"
