#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the given
# arguments. Everything the build leaves behind (binary, Go build cache, temp
# files) stays under .bench_build/ in the checkout. Run from anywhere; the
# benchmark itself runs from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod beside bench/ — the benchmark builds the detector from the repository's source and cannot run without it" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/hierdet-bench" ./bench
exec "$build/hierdet-bench" "$@"
