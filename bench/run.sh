#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash bench/run.sh --workload mol3d-32c --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare --base runs/base --head runs/head
#
# The Go build cache, the binary and every temporary file the benchmark
# writes live under the build directory ($CARGO_TARGET_DIR, default
# .bench_build), so a run touches nothing outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$build/bench" .)

if [ -z "${BENCH_COMMIT:-}" ]; then
	BENCH_COMMIT=unknown
	if [ -d "$root/.git" ]; then
		BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
	fi
	export BENCH_COMMIT
fi
exec "$build/bench" "$@"
