#!/usr/bin/env bash
# The benchmark's own gate: format, lints, unit tests and the --quick
# end-to-end smoke, all offline, all inside target/benchmark. Run from
# anywhere; it changes to the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR=target/benchmark
M=benchmark/Cargo.toml

echo "== cargo fmt --check"
cargo fmt --check --manifest-path "$M"

echo "== cargo clippy -D warnings"
cargo clippy --release --offline --all-targets --manifest-path "$M" -- -D warnings

echo "== cargo test (release: the smoke test runs the built binary)"
cargo test --release --offline --manifest-path "$M"

echo "== --quick sweep"
benchmark/run.sh --quick > "$CARGO_TARGET_DIR/quick.log" || {
    tail -40 "$CARGO_TARGET_DIR/quick.log" >&2
    echo "benchmark/run.sh --quick failed" >&2
    exit 1
}
grep '^derived:' "$CARGO_TARGET_DIR/quick.log"

echo "== scratch storage tree removed"
if [ -d "$CARGO_TARGET_DIR/results/tmp" ] && [ -n "$(ls -A "$CARGO_TARGET_DIR/results/tmp")" ]; then
    echo "left behind: $(ls "$CARGO_TARGET_DIR/results/tmp")" >&2
    exit 1
fi

echo "== nothing outside BENCHMARK.json and benchmark/ changed"
# The builder's bookkeeping files (.gitignore, CHANGES.md, ISSUE.md,
# REVIEW.md, BENCHMARK_REFUSED.md) may differ too; no source, manifest or lock file may.
if git rev-parse --git-dir > /dev/null 2>&1; then
    stray=$(git status --short | grep -vE '^.. (BENCHMARK\.json|benchmark/|\.gitignore|CHANGES\.md|ISSUE\.md|REVIEW\.md|BENCHMARK_REFUSED\.md)' || true)
    if [ -n "$stray" ]; then
        echo "$stray" >&2
        exit 1
    fi
fi

echo "benchmark check OK"
