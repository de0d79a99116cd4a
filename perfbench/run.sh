#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload hpccg-dump --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# benchmark's segment stores live under $CARGO_TARGET_DIR (default
# .bench_build), so a run writes nothing else. Without the repository's
# sources next to perfbench/ the build fails and so does the run.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off

bin="$out/perfbench.$$"
(cd perfbench && go build -o "$bin" .)
mv -f "$bin" "$out/perfbench"
exec "$out/perfbench" -workdir "$out" "$@"
