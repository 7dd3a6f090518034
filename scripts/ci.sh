#!/usr/bin/env bash
# CI gate. Everything runs --offline: the workspace has a zero-dependency
# policy (see DESIGN.md) and must build and test with an empty registry
# cache. Run from the repository root.
#
# Every behavioural gate is a tier-1 test (`cargo test`): the determinism
# pins, the adversarial matrix and the kill/restart matrix with every
# trace judged by `clanbft_inspect::check` in process, the exactly-once
# audits, the monitor's benign silence and fault recall online and in the
# offline replay, the `clanbft-inspect` binary over a fixture trace, the
# profiler contract, the decoder mutations, and EXPERIMENTS.md's Fig. 5
# table against BENCH_summary.json. What runs here besides them is what
# tier-1 cannot: formatting, the README examples, lints, doc links, the
# Fig. 5a re-run against its committed lines, the benchmark package and the
# dependency audit.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== non-test source lines (a report, not a gate)"
# The per-crate counts, the protocol and watcher sums and the node.rs and
# engine.rs totals that ROADMAP.md's line gates are written in, so every CI
# log carries them. Nothing here fails the run.
scripts/loc.sh || echo "scripts/loc.sh failed; the report is missing"

echo "== cargo test -q --offline"
cargo test -q --offline

echo "== the rbc crate's pure functions at 16x their property cases"
# The threshold core and the pull planner's one rule (f_c + 1 peers not yet
# asked, echoers first) are each held to a naive transcription by a testkit
# property of 256 cases, and a settled row whose vote block was dropped to a
# row that keeps it: two engines fed the same packets for one instance, late
# ones of every kind included, send, count and trace alike; this pass runs
# 4096 (~20 s).
TESTKIT_CASES=4096 cargo test -q --offline -p clanbft-rbc --lib

echo "== the pool's and the batch planner's properties at 4096 cases"
# The pool, which merges runs on admission and splits one on a pull, is held
# to a per-transaction model, and its lanes to the capacity clause: at the
# end of each window of pulls a lane keeps storage for at most twice the
# window's high-water mark (at least the floor), so a drained backlog's
# storage goes once a quiet window has passed; plan_batches to the quadratic
# planner it replaced. 128 and 256 cases in tier-1; ~5 s here.
TESTKIT_CASES=4096 cargo test -q --offline -p clanbft-sim --test properties -- \
    linear_batch_planner_matches_the_quadratic_one \
    index_addressed_client_table_matches_a_btreemap_model

echo "== the state-transfer agreement property at 4096 cases"
# transfer::agree, which decides everything a post-restart transfer adopts,
# is held to a naive transcription of the tallies it replaced; 256 cases in
# tier-1.
TESTKIT_CASES=4096 cargo test -q --offline -p clanbft-consensus --lib -- \
    agree_matches_a_naive_transcription_of_the_tallies

echo "== the aggregate-signature property at 4096 cases"
# An aggregate is a signer bitmap and one folded signature: over a random
# signer subset with duplicates, one contribution perhaps altered, it
# verifies iff no contribution it folded was altered, and counts each
# distinct signer once. 256 cases in tier-1; ~5 s here.
TESTKIT_CASES=4096 cargo test -q --offline -p clanbft-crypto --test crypto_props -- \
    an_aggregate_verifies_iff_no_folded_contribution_was_altered

echo "== the README examples run to completion"
# `cargo build` only compiles them; an example that panics fails here.
for example in quickstart shared_sequencer tribe_rbc "clan_planner 150"; do
    echo "-- $example"
    # Unquoted on purpose: "clan_planner 150" is a name and an argument.
    cargo run -q --release --offline --example $example > /dev/null
done

echo "== cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings (every intra-doc link resolves to a public item)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== figures check (the committed Fig. 5a lines reproduce bit for bit)"
# Re-runs Fig. 5a (n = 50, two protocols, four loads, three repetitions
# each: seconds) and compares every simulated column of every point with
# its committed line in crates/bench/BENCH_fig5.json, and of the two
# headlines with BENCH_summary.json. A stale, hand-edited or drifted number
# exits non-zero; host-time columns are not judged. The rest of the sweep
# (n = 100 and 150, Fig. 6, the ablation) is scripts/refresh_bench.sh,
# which says the same per line before it rewrites the files.
cargo bench -q --offline -p clanbft-bench --bench figures -- fig5 a --check

echo "== figures check (the committed Fig. 5d real-WAL lines reproduce bit for bit)"
# The one section whose nodes write a real WAL and checkpoints: its
# `wal_bytes_per_commit` column is the durable record format's size.
cargo bench -q --offline -p clanbft-bench --bench figures -- fig5 d --check

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

echo "== dependency audit (every package comes from a path in this repository)"
# `cargo metadata` gives every package and every dependency edge a
# "source": null for a path in this repository, a registry or git URL for
# anything else. Any non-null source is an external crate, whatever its name.
for manifest in Cargo.toml benchmark/Cargo.toml; do
    sources=$(cargo metadata --offline --format-version 1 --manifest-path "$manifest" |
        grep -o '"source":[^,}]*')
    external=$(grep -v '^"source":null$' <<<"$sources" || true)
    if [ -n "$external" ]; then
        echo "$manifest: external crate source(s):" >&2
        sort -u <<<"$external" >&2
        exit 1
    fi
    echo "$manifest: $(wc -l <<<"$sources") \"source\" entries, all null"
done

echo "CI OK"
