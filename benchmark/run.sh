#!/usr/bin/env bash
# Builds the benchmark (offline, release) and runs it.
#
#   benchmark/run.sh [--seed S] [--quick]
#       every workload, both passes, each in its own process; prints every
#       metric by name and writes <target>/results/results.json plus one
#       <workload>.trace.ndjson per workload
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one workload, one pass; the last line of standard output is the
#       result object (the driver contract in BENCHMARK.json)
#   benchmark/run.sh compare <a.json> <b.json> [--same-code]
#
# <target> is $CARGO_TARGET_DIR, or target/benchmark when that is unset.
# Build messages go to standard error; nothing is written outside <target>.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/clanbft-benchmark" "$@"
