#!/usr/bin/env bash
# Builds the AutomataZoo benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash azbench/run.sh --workload literal --seed 2592 --seconds 25 --trace 0
#   bash azbench/run.sh compare parent.out change.out
#
# Build outputs (binary, Go build cache, span files) go under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local

(cd "$(dirname "$0")" && go build -o "$out/azbench" ./cmd/azbench) >&2
exec "$out/azbench" --out-dir "$out" "$@"
