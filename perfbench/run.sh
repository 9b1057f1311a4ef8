#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed on (see main.go for the flags):
#
#   bash perfbench/run.sh --workload ep-deep --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, spans and checkpoint files all stay
# under .bench_build/perfbench in the current directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
