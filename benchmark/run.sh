#!/usr/bin/env bash
# The benchmark's single entry point (named in BENCHMARK.json):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh                  every workload, timed then traced
#   bash benchmark/run.sh aa               the timed set twice, differences against the bounds
#
# Builds the benchmark package (offline, release, the product's profile) into
# $CARGO_TARGET_DIR, or benchmark/target when that is unset, then runs it from
# the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC BENCH_COMMIT
exec "$target/release/benchmark" "$@"
