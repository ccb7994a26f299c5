#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#
#	bash perfbench/run.sh --workload dissim-read --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every file the build and the run
# leave behind (Go build cache, binary, store directories) goes under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --scratch "$out/runs" "$@"
