#!/usr/bin/env bash
# CI gate. Everything runs --offline: the workspace has a zero-dependency
# policy (see DESIGN.md) and must build and test with an empty registry
# cache. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline"
# Every suite runs here, once: the adversarial matrix (tests/adversary.rs),
# the layer-level idempotence/hardening regressions, the determinism pins,
# the mempool/loadgen/codec properties, the kill/restart matrix
# (tests/fault_injection.rs), the WAL torn-write properties and the monitor
# precision/recall suites, the profiler contract (tests/profiler_contract.rs)
# and the decoder mutations (tests/decode_fuzz.rs) included. The gates below
# run what this does not: examples, the inspect binary over their traces,
# the figures check and benchmark/.
cargo test -q --offline

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== instrumented sim (trace invariants)"
# The example asserts per-party commit/round monotonicity and per-vertex
# propose <= certify <= commit over a live telemetry stream; it exits
# non-zero on any violation.
cargo run --release --offline -p clanbft-sim --example trace_summary > /dev/null

echo "== inspect gate (post-mortem toolchain over live traces)"
# capture_trace runs the same 7-party single-clan tribe twice (benign and
# with one withholding clan member, same seed), writes both merged NDJSON
# traces, and already asserts their invariants in-process. Re-judge both
# files through the clanbft-inspect binary: `check` fails on any
# incomplete span or unattributed evidence, and the diff between the runs
# must name the pull-retry machinery as the attack's dominant signature.
TRACES=target/ci-traces
rm -rf "$TRACES"
cargo run --release --offline -p clanbft-sim --example capture_trace -- "$TRACES" > /dev/null
INSPECT=target/release/clanbft-inspect
cargo build --release --offline -p clanbft-inspect
"$INSPECT" check "$TRACES/benign.ndjson"
"$INSPECT" check "$TRACES/withhold.ndjson"
if ! "$INSPECT" diff "$TRACES/benign.ndjson" "$TRACES/withhold.ndjson" \
        | grep -q "verdict: pull-retry is the dominant regression"; then
    echo "inspect diff failed to flag the pull-retry stage" >&2
    exit 1
fi
# The waterfall and DAG renderings must at least produce non-empty output
# on a real trace (their exact shape is pinned by unit/golden tests).
test -n "$("$INSPECT" waterfall "$TRACES/benign.ndjson" | head -1)"
test -n "$("$INSPECT" dot "$TRACES/benign.ndjson" --rounds 1..3 | head -1)"

echo "== load-generation smoke (>=100k closed-loop client txs, exactly-once)"
# loadgen_smoke runs a 4-party closed-loop workload, audits in-process that
# every admitted client transaction commits exactly once (no duplicates, no
# gaps, nothing left queued or in flight), and writes its instrumented
# trace; re-judge that trace through the clanbft-inspect binary too.
LOADGEN=target/ci-loadgen
rm -rf "$LOADGEN"
cargo run --release --offline -p clanbft-sim --example loadgen_smoke -- "$LOADGEN" > /dev/null
"$INSPECT" check "$LOADGEN/loadgen.ndjson"

echo "== crash-recovery gate (WAL replay, state transfer, epoch rotation)"
# recovery_smoke runs two durable scenarios — a crash/restart recovered
# from checkpoint + WAL + peer state transfer, and an epoch rotation that
# deterministically replaces a crashed clan member — asserting in-process
# that the restarted party rebuilds from disk, rejoins the same total
# order gap-free, and that rotation never halts commits. Re-judge both
# traces through the inspect binary: `check` now also enforces the
# recovery-continuity (no lost or re-acked sequences across a restart)
# and no-equivocation (a restart re-broadcasts, never re-mints) invariants.
RECOVERY=target/ci-recovery
rm -rf "$RECOVERY"
cargo run --release --offline -p clanbft-sim --example recovery_smoke -- "$RECOVERY" > /dev/null
"$INSPECT" check "$RECOVERY/restart.ndjson"
"$INSPECT" check "$RECOVERY/rotation.ndjson"

echo "== health-monitor gate (benign silence, fault alerts, offline parity)"
# monitor_smoke runs the same single-clan tribe benign and faulty (one
# withholding clan member plus a crash/restart) under the live monitor and
# asserts in-process: the benign run fires zero alerts with a healthy
# verdict, the faulty run fires pull_retry_storm against the starved victim
# and commit_stall against the crashed party, clears both on recovery, and
# still ends healthy. Re-judge both exported traces through the inspect
# binary: `check` for protocol invariants, and the `alerts` offline replay
# must reach the same verdict shape the online monitor saw.
MONITOR=target/ci-monitor
rm -rf "$MONITOR"
cargo run --release --offline -p clanbft-sim --example monitor_smoke -- "$MONITOR" > /dev/null
"$INSPECT" check "$MONITOR/benign.ndjson"
"$INSPECT" check "$MONITOR/faulty.ndjson"
if ! "$INSPECT" alerts "$MONITOR/benign.ndjson" | grep -q "no alerts"; then
    echo "offline replay found alerts in the benign trace" >&2
    exit 1
fi
FAULTY_ALERTS=$("$INSPECT" alerts "$MONITOR/faulty.ndjson")
for want in pull_retry_storm commit_stall "verdict: healthy"; do
    if ! grep -q "$want" <<< "$FAULTY_ALERTS"; then
        echo "offline alert replay of the faulty trace missing \"$want\"" >&2
        exit 1
    fi
done
# The live monitor's own alert stream must agree: empty for benign, storm +
# stall fired and cleared for faulty (files written by monitor_smoke).
test ! -s "$MONITOR/benign.alerts.ndjson"
grep -q '"alert":"clear","detector":"commit_stall"' "$MONITOR/faulty.alerts.ndjson"
grep -q '"alert":"clear","detector":"pull_retry_storm"' "$MONITOR/faulty.alerts.ndjson"

echo "== figures check (the committed Fig. 5a lines reproduce bit for bit)"
# Re-runs Fig. 5a (n = 50, two protocols, four loads, three repetitions
# each: seconds) and compares every simulated column of every point with
# its committed line in crates/bench/BENCH_fig5.json, and of the two
# headlines with BENCH_summary.json. A stale, hand-edited or drifted number
# exits non-zero; host-time columns are not judged. The rest of the sweep
# (n = 100 and 150, Fig. 6, the ablation) is scripts/refresh_bench.sh,
# which says the same per line before it rewrites the files.
cargo bench -q --offline -p clanbft-bench --bench figures -- fig5 a --check

echo "== repo benchmark gate (benchmark/ builds and runs against crates/*)"
# benchmark/ is a package of its own with path dependencies into crates/*:
# a signature drift there breaks its build without failing anything above.
# These are the steps of benchmark/check.sh minus its last one, which
# refuses any tree with uncommitted source changes -- this script has to
# pass on a working tree (ci.yml runs that step itself, after this script,
# on its clean checkout).
(
    export CARGO_TARGET_DIR=target/benchmark
    M=benchmark/Cargo.toml
    cargo fmt --check --manifest-path "$M"
    cargo clippy --release --offline --all-targets --manifest-path "$M" -- -D warnings
    cargo test --release --offline --manifest-path "$M"
    benchmark/run.sh --quick > "$CARGO_TARGET_DIR/quick.log" || {
        tail -40 "$CARGO_TARGET_DIR/quick.log" >&2
        echo "benchmark/run.sh --quick failed" >&2
        exit 1
    }
    grep '^derived:' "$CARGO_TARGET_DIR/quick.log"
)

echo "== dependency audit (manifests must declare no external crates)"
if grep -R "rand\|proptest\|criterion\|crossbeam" crates/*/Cargo.toml Cargo.toml; then
    echo "external crate reference found in a manifest" >&2
    exit 1
fi

echo "CI OK"
