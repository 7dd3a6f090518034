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
# precision/recall suites included. The gates below run what this does
# not: examples, the inspect binary over their traces, and benchmark/.
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

echo "== profile smoke (profiler contract + perf regression gate)"
# perf_smoke runs the pinned workload disabled / timing-only / fully
# profiled and asserts in-process: identical commits and event counts
# across modes, >= 8 stages over >= 5 subsystems with allocation
# attribution, calls / allocations / allocated bytes per scope identical
# between the two same-seed profiled runs, and the deterministic facts
# pinned in crates/bench/BENCH_perf_baseline.json. Everything gated is
# same-seed exact; instrument overhead is printed with its spread. Host
# time is judged by benchmark/, with alternating paired runs.
PERF=target/ci-perf
rm -rf "$PERF"
cargo run --release --offline -p clanbft-sim --example perf_smoke -- "$PERF"
# Re-judge the emitted profiles through the inspect binary: the report must
# name the RBC hot stage, and the a->b diff of two same-seed runs must find
# every count identical (its time verdict is host noise: shown, not gated).
"$INSPECT" profile "$PERF/profile_a.ndjson" | grep -q "rbc.handle"
DIFF=$("$INSPECT" profile --diff "$PERF/profile_a.ndjson" "$PERF/profile_b.ndjson")
grep -E '^(verdict|counts):' <<< "$DIFF"
if ! grep -q "^counts: identical" <<< "$DIFF"; then
    echo "inspect profile --diff: same-seed runs differ in calls, allocations or bytes" >&2
    exit 1
fi

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

echo "== bench trajectory (committed summary present and well-formed)"
# BENCH_summary.json is regenerated by scripts/refresh_bench.sh (the fig5
# sweep is too slow for CI); here we pin its shape so a stale or truncated
# commit fails fast: every line must carry the headline and host-rate
# fields, and the sweep must cover all three figure sections.
for key in throughput_tps p50_latency_us sim_events_per_sec wall_us_per_sim_sec \
           wal_fsync_p50_us wal_fsync_p99_us wal_bytes_per_commit; do
    if grep -v "\"$key\"" BENCH_summary.json | grep -q .; then
        echo "BENCH_summary.json: line missing \"$key\"" >&2
        exit 1
    fi
done
for fig in 5a 5b 5c 5d; do
    grep -q "\"figure\":\"$fig\"" BENCH_summary.json || {
        echo "BENCH_summary.json: figure $fig missing" >&2
        exit 1
    }
done
# The 5d durability point must carry a real (non-zero) fsync measurement:
# it is the one section that runs with storage attached.
if ! grep "\"figure\":\"5d\"" BENCH_summary.json | grep -qv "\"wal_fsync_p99_us\":0,"; then
    echo "BENCH_summary.json: 5d line has no measured fsync latency" >&2
    exit 1
fi

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
