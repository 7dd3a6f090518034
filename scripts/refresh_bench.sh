#!/usr/bin/env bash
# Regenerates the committed figure results: one sweep of the reduced grid
# (about ten minutes; run it on a quiet host from the repository root).
#
#   crates/bench/BENCH_fig5.json   every simulated point: fig5 a-d, fig6,
#                                  the bandwidth ablation
#   BENCH_summary.json             per fig5 section and protocol, the line
#                                  of the best-throughput point
#
# Before it rewrites the two files the runner compares every line with the
# committed one and prints `simulated: identical` or the columns that
# moved, at n = 50, 100 and 150. Simulated columns are exact: a line that
# moved is a behaviour change to explain in the commit. Host columns (wall
# time, event rate, fsync latency) are this machine's.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo bench -q --offline -p clanbft-bench --bench figures -- all

echo "refresh_bench: done — review and commit:"
git status --short BENCH_summary.json crates/bench/BENCH_fig5.json
