//! End-to-end determinism: the whole stack — key generation, clan election,
//! simulated network jitter, consensus — runs on the in-tree seeded PRNG, so
//! two runs with the same seed must produce byte-identical commit sequences
//! on every node. This is the regression gate for the zero-dependency PRNG
//! swap: any hidden nondeterminism (HashMap iteration order, OS entropy,
//! wall-clock leakage) shows up here as a diverged total order.

mod common;

use clanbft_sim::tribe::elect_clan;
use clanbft_sim::{build_tribe, TribeSpec};
use clanbft_types::{Micros, PartyId};

/// One node's committed sequence, flattened for comparison.
type CommitTrace = Vec<(u64, u64, u32, [u8; 32], u64)>;

fn run_single_clan(seed: u64) -> Vec<CommitTrace> {
    let n = 8;
    let mut spec = TribeSpec::new(n);
    spec.clans = Some(vec![elect_clan(n, 4, seed)]);
    spec.max_round = Some(8);
    spec.txs_per_proposal = 50;
    spec.seed = seed;
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(3_000));
    (0..n as u32)
        .map(|p| {
            built
                .sim
                .node(PartyId(p))
                .committed_log
                .iter()
                .map(|c| {
                    (
                        c.sequence,
                        c.vertex.round.0,
                        c.vertex.source.0,
                        c.block_digest.0,
                        c.committed_at.0,
                    )
                })
                .collect()
        })
        .collect()
}

#[test]
fn same_seed_single_clan_runs_commit_identically() {
    let first = run_single_clan(42);
    let second = run_single_clan(42);

    // The run must actually commit something, otherwise this test is vacuous.
    let total: usize = first.iter().map(Vec::len).sum();
    assert!(total > 0, "no commits in an 8-round benign run");

    for (p, (a, b)) in first.iter().zip(&second).enumerate() {
        assert_eq!(
            a, b,
            "party {p} diverged between two runs with the same seed"
        );
    }
}

/// `spec` run to quiescence with a recorder attached; its merged trace has
/// passed the invariant gate.
fn traced(spec: TribeSpec) -> common::Judged {
    common::run_judged(spec, Micros::from_secs(3_000))
}

/// One instrumented single-clan run.
fn run_traced(seed: u64) -> common::Judged {
    let n = 8;
    let mut spec = TribeSpec::new(n);
    spec.clans = Some(vec![elect_clan(n, 4, seed)]);
    spec.max_round = Some(8);
    spec.txs_per_proposal = 50;
    spec.seed = seed;
    traced(spec)
}

#[test]
fn same_seed_runs_emit_identical_event_streams() {
    // The telemetry layer must not introduce nondeterminism of its own
    // (iteration order, interleaving): the full serialized merged trace —
    // meta line, every stamp, party and field — is byte-identical across
    // same-seed runs.
    let first = run_traced(42).text;
    let second = run_traced(42).text;
    assert!(
        first.lines().count() > 100,
        "instrumented run produced suspiciously few events"
    );
    assert_eq!(
        first, second,
        "event streams diverged between same-seed runs"
    );
}

#[test]
fn same_seed_runs_analyze_identically() {
    // The post-mortem toolchain must be as deterministic as the runs it
    // judges: parsing the merged trace and rendering the commit waterfall
    // twice from two same-seed runs yields byte-identical reports. (`traced`
    // has already put each trace through the full NDJSON round trip and
    // the `clanbft-inspect check` invariant gate.)
    let first = run_traced(42).trace;
    let second = run_traced(42).trace;
    let (wf_a, wf_b) = (
        clanbft_inspect::waterfall(&first),
        clanbft_inspect::waterfall(&second),
    );
    assert!(
        wf_a.lines().count() > 10,
        "waterfall is suspiciously short:\n{wf_a}"
    );
    assert_eq!(wf_a, wf_b, "waterfalls diverged between same-seed runs");
    let dag = clanbft_inspect::dot(&first, Some(1), Some(3));
    assert!(
        dag.contains("style=solid") && dag.contains(" -> "),
        "rounds 1..3 render no committed vertex or no edge:\n{dag}"
    );
}

/// One instrumented adversarial run: commit traces plus detection counters.
fn adversarial_spec(seed: u64) -> TribeSpec {
    use clanbft_adversary::Attack;
    let mut spec = TribeSpec::new(7);
    spec.max_round = Some(8);
    spec.txs_per_proposal = 30;
    spec.seed = seed;
    spec.timeout = Micros::from_millis(1_200);
    spec.byzantine = vec![
        (PartyId(1), Attack::Equivocate),
        (PartyId(4), Attack::Replay),
    ];
    spec
}

fn run_adversarial(seed: u64) -> (Vec<CommitTrace>, Vec<(&'static str, u64)>) {
    let (telemetry, recorder) = clanbft_telemetry::Telemetry::mem();
    let mut spec = adversarial_spec(seed);
    let n = spec.n;
    spec.telemetry = telemetry;
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    let traces = (0..n as u32)
        .map(|p| {
            built
                .sim
                .node(PartyId(p))
                .committed_log
                .iter()
                .map(|c| {
                    (
                        c.sequence,
                        c.vertex.round.0,
                        c.vertex.source.0,
                        c.block_digest.0,
                        c.committed_at.0,
                    )
                })
                .collect()
        })
        .collect();
    let mut counters = recorder.counters();
    counters.sort();
    (traces, counters)
}

#[test]
fn same_seed_adversarial_runs_are_identical() {
    // The attack behaviours (twin caching, replay windows, digest forgery)
    // must be as deterministic as the honest path: same seed ⇒ identical
    // commits AND identical detection counters, down to the exact tick
    // counts. This pins the whole adversary harness against hidden
    // nondeterminism.
    let (commits_a, counters_a) = run_adversarial(42);
    let (commits_b, counters_b) = run_adversarial(42);
    let total: usize = commits_a.iter().map(Vec::len).sum();
    assert!(total > 0, "adversarial run committed nothing");
    assert_eq!(commits_a, commits_b, "commits diverged under attack");
    assert_eq!(counters_a, counters_b, "detection counters diverged");
    // The attack must actually have been detected, or the pin is vacuous.
    let evidence = counters_a
        .iter()
        .find(|(k, _)| *k == "evidence.recorded")
        .map(|(_, v)| *v)
        .unwrap_or(0);
    assert!(evidence >= 1, "no evidence recorded in the adversarial run");
}

/// The crash/restart tribe, persisting under a scratch storage root of its
/// own (returned so the caller can remove it).
fn recovery_spec(seed: u64, tag: &str) -> (TribeSpec, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "clanbft-determinism-{}-{seed}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut spec = TribeSpec::new(4);
    spec.max_round = Some(12);
    spec.txs_per_proposal = 30;
    spec.seed = seed;
    spec.timeout = Micros::from_millis(1_200);
    spec.storage_root = Some(dir.clone());
    spec.crashes = vec![(PartyId(2), Micros::from_millis(900))];
    spec.restarts = vec![(PartyId(2), Micros::from_millis(2_600))];
    (spec, dir)
}

/// Commit traces, durability counters and the exported event trace of one
/// crash/restart run.
fn run_recovery(seed: u64, tag: &str) -> (Vec<CommitTrace>, Vec<(&'static str, u64)>, String) {
    let (telemetry, recorder) = clanbft_telemetry::Telemetry::mem();
    let (mut spec, dir) = recovery_spec(seed, tag);
    let n = spec.n;
    spec.telemetry = telemetry;
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    let traces = (0..n as u32)
        .map(|p| {
            built
                .sim
                .node(PartyId(p))
                .committed_log
                .iter()
                .map(|c| {
                    (
                        c.sequence,
                        c.vertex.round.0,
                        c.vertex.source.0,
                        c.block_digest.0,
                        c.committed_at.0,
                    )
                })
                .collect()
        })
        .collect();
    let mut counters = recorder.counters();
    counters.sort();
    let trace = clanbft_sim::export_trace(&spec, &recorder);
    let _ = std::fs::remove_dir_all(&dir);
    (traces, counters, trace)
}

#[test]
fn same_seed_recovery_runs_are_identical() {
    // Crash, WAL replay, state transfer, and catchup are all on the seeded
    // deterministic path: two same-seed runs produce identical commit
    // traces on every node (including the restarted one), identical
    // durability counters, down to exact WAL-append counts, and
    // byte-identical exported event traces.
    let (commits_a, counters_a, trace_a) = run_recovery(42, "a");
    let (commits_b, counters_b, trace_b) = run_recovery(42, "b");
    let total: usize = commits_a.iter().map(Vec::len).sum();
    assert!(total > 0, "recovery run committed nothing");
    assert_eq!(commits_a, commits_b, "commits diverged across restart runs");
    assert_eq!(counters_a, counters_b, "durability counters diverged");
    assert!(
        trace_a.contains("\"recovery_completed\""),
        "the trace holds no restart"
    );
    assert_eq!(
        trace_a, trace_b,
        "event traces diverged across restart runs"
    );
    // The restart must actually have exercised the durable path, or the
    // pin is vacuous.
    let count = |key: &str| {
        counters_a
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    assert!(count("wal.appends") > 0, "no WAL appends recorded");
    assert!(
        count("state_transfer.requests") > 0,
        "restart never requested state transfer"
    );
}

/// A single-clan tribe with one clan member withholding payloads from
/// another: the pull and pull-retry machinery under consensus.
fn withhold_spec(seed: u64) -> TribeSpec {
    use clanbft_adversary::Attack;
    let n = 7;
    let mut spec = TribeSpec::new(n);
    spec.clans = Some(vec![elect_clan(n, 4, seed)]);
    spec.max_round = Some(8);
    spec.txs_per_proposal = 50;
    spec.seed = seed;
    // Short pull deadline so the withhold attack drives the retry machinery
    // hard enough to trip the pull-retry-storm detector.
    spec.pull_retry = Micros::from_millis(20);
    spec.byzantine = vec![(
        PartyId(1),
        Attack::Withhold {
            victims: vec![PartyId(2)],
        },
    )];
    spec
}

#[test]
fn withholding_passes_check_and_diffs_as_pull_retry() {
    // The withhold tribe with and without its attacker, same seed: both
    // traces pass every invariant (`traced` judges them), and the diff
    // between them names the pull-retry machinery — exactly how a
    // withheld-from victim recovers.
    let mut benign = withhold_spec(42);
    benign.byzantine.clear();
    let (benign, withheld) = (traced(benign).trace, traced(withhold_spec(42)).trace);
    let report = clanbft_inspect::diff(&benign, &withheld);
    assert!(
        report.contains("verdict: pull-retry is the dominant regression"),
        "{report}"
    );
}

/// One monitored withhold run's full alert stream as NDJSON.
fn run_monitored_alerts(seed: u64) -> String {
    let monitor = clanbft_monitor::HealthMonitor::default();
    let mut spec = withhold_spec(seed);
    spec.monitor = Some(monitor.clone());
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(300));
    monitor.settle();
    monitor.alerts_ndjson()
}

#[test]
fn same_seed_runs_emit_identical_alert_streams() {
    // The online detectors run on event-time, never wall time, so the whole
    // alert stream — every fire/clear, stamp, round and evidence string —
    // is part of the deterministic surface. (The one host-time detector,
    // WAL degradation, sees no input in a memory-only run.) Two same-seed
    // withhold runs must emit byte-identical NDJSON.
    let first = run_monitored_alerts(42);
    let second = run_monitored_alerts(42);
    assert!(
        first.contains("\"detector\":\"pull_retry_storm\""),
        "withhold run never tripped the storm detector:\n{first}"
    );
    assert_eq!(
        first, second,
        "alert streams diverged between same-seed runs"
    );
}

#[test]
fn different_seeds_change_the_run() {
    // Not a safety property — just a sanity check that the seed is actually
    // threaded through (identical traces for different seeds would mean the
    // PRNG is being ignored somewhere).
    let a = run_single_clan(1);
    let b = run_single_clan(2);
    let flat =
        |runs: &Vec<CommitTrace>| -> Vec<u64> { runs.iter().flatten().map(|t| t.4).collect() };
    assert_ne!(flat(&a), flat(&b), "seed change had no observable effect");
}

/// One profiled run's `(scope path, call count)` vector.
fn run_profiled_counts(seed: u64) -> Vec<(String, u64)> {
    clanbft_profiler::reset();
    clanbft_profiler::enable();
    let _ = run_single_clan(seed);
    let report = clanbft_profiler::take_report();
    clanbft_profiler::disable();
    report.counts()
}

#[test]
fn same_seed_runs_profile_identical_scope_counts() {
    // Scope *counts* are part of the deterministic surface: the profiler
    // hooks sit on the hot path (simulator dispatch, rbc, consensus, dag,
    // crypto, mempool), so two same-seed runs must enter every scope path
    // exactly the same number of times. Times vary with the host; the tree
    // shape and call counts must not. A divergence here means either hidden
    // nondeterminism in the stack or a profiler hook inside a
    // host-dependent branch.
    let first = run_profiled_counts(42);
    let second = run_profiled_counts(42);
    assert!(
        first.iter().map(|(_, c)| c).sum::<u64>() > 0,
        "profiled run recorded no scope entries"
    );
    assert_eq!(
        first, second,
        "scope counts diverged between same-seed runs"
    );

    // The pipeline stages the profile must name (paths may deepen as
    // instrumentation grows; these stage names are load-bearing).
    let names: std::collections::BTreeSet<&str> =
        first.iter().flat_map(|(p, _)| p.split(';')).collect();
    for stage in [
        "sim.run",
        "rbc.handle",
        "consensus.process_vertex",
        "dag.insert",
        "codec.vertex_id",
        "crypto.sign",
        "mempool.plan_batches",
    ] {
        assert!(
            names.contains(stage),
            "stage {stage:?} missing from profile"
        );
    }
}

/// Everything about a run that is visible without looking at the host:
/// event and message counts, wire bytes in total and per message kind, one
/// digest over every party's committed log (sequence, vertex, block digest
/// and simulated commit time), every telemetry counter, and the SHA-256 of
/// the exported NDJSON trace.
#[derive(Debug, PartialEq)]
struct SimFingerprint {
    handled_events: u64,
    delivered_msgs: u64,
    total_bytes: u64,
    bytes_by_kind: Vec<(&'static str, u64)>,
    committed_log: String,
    counters: Vec<(&'static str, u64)>,
    trace: String,
}

fn sim_fingerprint(mut spec: TribeSpec, until: Micros) -> SimFingerprint {
    let (telemetry, recorder) = clanbft_telemetry::Telemetry::mem();
    spec.telemetry = telemetry;
    let mut built = build_tribe(&spec);
    built.sim.run_until(until);
    let mut log = clanbft_crypto::Hasher::new("test/committed-log");
    for p in 0..spec.n as u32 {
        let node = built.sim.node(PartyId(p));
        log.update_u64(node.committed_log.len() as u64);
        for c in &node.committed_log {
            log.update_u64(c.sequence);
            log.update_u64(c.vertex.round.0);
            log.update_u64(u64::from(c.vertex.source.0));
            log.update(c.block_digest.as_bytes());
            log.update_u64(c.committed_at.0);
        }
    }
    let stats = built.sim.stats();
    let mut counters = recorder.counters();
    counters.sort();
    SimFingerprint {
        handled_events: stats.handled_events,
        delivered_msgs: stats.delivered_msgs,
        total_bytes: stats.total_bytes(),
        bytes_by_kind: stats.bytes_by_kind.iter().map(|(k, v)| (*k, *v)).collect(),
        committed_log: log.finalize().to_hex(),
        counters,
        trace: clanbft_crypto::Digest::of(clanbft_sim::export_trace(&spec, &recorder).as_bytes())
            .to_hex(),
    }
}

/// The simulated outcome of two fixed-seed runs, pinned at the commit
/// before the message path was made index-addressed and allocation-free
/// (hardware SHA-256, burst accounting in the simulator, inline event
/// storage, slot-addressed RBC state). Host-side work on dispatch, hashing
/// or bookkeeping must leave every one of these numbers alone; a change
/// that moves them changed the protocol or the network model, and has to
/// say so by re-pinning. (Re-pinned twice since: with the weak-edge rule —
/// a weak edge only where the strong edges leave no path: the same events
/// and messages, fewer vertex bytes, and more vertices committed by round
/// 8 — when the event kinds nothing read left the trace, which moved the
/// trace hashes alone, and when the counters nothing read left the table.)
#[test]
fn host_path_is_invisible_to_the_simulation() {
    let n = 8;
    let mut single = TribeSpec::new(n);
    single.clans = Some(vec![elect_clan(n, 4, 42)]);
    single.max_round = Some(8);
    single.txs_per_proposal = 50;
    single.seed = 42;
    assert_eq!(
        sim_fingerprint(single, Micros::from_secs(3_000)),
        SimFingerprint {
            handled_events: 9936,
            delivered_msgs: 9856,
            total_bytes: 3_828_872,
            bytes_by_kind: vec![
                ("rbc.cert", 455_616),
                ("rbc.echo", 451_584),
                ("rbc.meta", 40_080),
                ("rbc.val", 2_821_560),
                ("timeout", 7_616),
                ("vote", 52_416),
            ],
            committed_log: "f7d1a74a5ecf6f1c5d7bdf53e43c101df6a92f8b46be0491ac55a7e8c67fe276"
                .to_string(),
            counters: vec![("commit.vertices", 488), ("mempool.admitted", 1800),],
            trace: "fa36b78c5d8a8b973855030186116602805d13edbfef9217e44a633347b7a3d5".to_string(),
        }
    );

    let mut multi = TribeSpec::new(n);
    multi.clans = Some(vec![
        [0, 2, 4, 6].map(PartyId).to_vec(),
        [1, 3, 5, 7].map(PartyId).to_vec(),
    ]);
    multi.max_round = Some(8);
    multi.txs_per_proposal = 50;
    multi.seed = 43;
    assert_eq!(
        sim_fingerprint(multi, Micros::from_secs(3_000)),
        SimFingerprint {
            handled_events: 9936,
            delivered_msgs: 9856,
            total_bytes: 6_605_684,
            bytes_by_kind: vec![
                ("rbc.cert", 455_616),
                ("rbc.echo", 451_584),
                ("rbc.meta", 45_744),
                ("rbc.val", 5_592_708),
                ("timeout", 7_616),
                ("vote", 52_416),
            ],
            committed_log: "20aedb87fe763b8d3c2109c1eaa334ed1ae86a4a680712b55a982333bc68c8c3"
                .to_string(),
            counters: vec![("commit.vertices", 496), ("mempool.admitted", 3600),],
            trace: "1f30eb28e52a538194ce20c9997b0aff9f397c6d998c4329568d91644333b269".to_string(),
        }
    );
}

/// The same pin for the runs that exercise what the benign ones never
/// reach — rejection, evidence and twin handling under attack; pulls and
/// pull retries against a withholding clan member; WAL replay, state
/// transfer and catch-up after a crash — captured at the commit before the
/// broadcast engines, the commit fold, round admission and the vertex store
/// were each reduced to one mechanism, and re-pinned with the weak-edge rule
/// (fewer vertex, state-transfer and WAL bytes; every count unchanged), when
/// the event kinds nothing read left the trace (trace hashes only), and when
/// the WAL came to hold one record per commit decision and none per epoch
/// decision (fewer WAL appends, bytes and fsyncs; unread counters gone).
/// The crash/restart run was re-pinned once more when state transfer came
/// to one reply per peer: six fewer messages move the seeded jitter after
/// the restart, so commit times shift, and with the host-time field gone
/// from its trace it is hashed like the others. Its WAL bytes moved alone
/// when a certificate came to carry one folded signature, not one per
/// signer (37 965 bytes before).
#[test]
fn fault_paths_are_invisible_to_the_simulation_too() {
    assert_eq!(
        sim_fingerprint(adversarial_spec(42), Micros::from_secs(300)),
        SimFingerprint {
            handled_events: 7253,
            delivered_msgs: 7183,
            total_bytes: 7166942,
            bytes_by_kind: vec![
                ("rbc.cert", 292896),
                ("rbc.echo", 338688),
                ("rbc.val", 6480966),
                ("timeout", 19448),
                ("vote", 34944)
            ],
            committed_log: "1bd992807e69104aa7d16ab219e8c1ecd136c512f8e257e486b82f32b1828fc5"
                .to_string(),
            counters: vec![
                ("commit.vertices", 294),
                ("evidence.recorded", 63),
                ("mempool.admitted", 1890),
                ("rejected.duplicate", 573),
                ("rejected.equivocation", 63)
            ],
            trace: "29f5c6f941ca3a6b86a7a8f492338959b6a4ef5b0255aa2d45f0bf093df63b7e".to_string()
        }
    );
    assert_eq!(
        sim_fingerprint(withhold_spec(42), Micros::from_secs(300)),
        SimFingerprint {
            handled_events: 6753,
            delivered_msgs: 6655,
            total_bytes: 3706188,
            bytes_by_kind: vec![
                ("rbc.cert", 298998),
                ("rbc.echo", 290304),
                ("rbc.meta", 23928),
                ("rbc.pull", 2160),
                ("rbc.pull_resp", 465876),
                ("rbc.val", 2579898),
                ("timeout", 5712),
                ("vote", 39312)
            ],
            committed_log: "29ddf17e7bb329de5ec46a10186fb0f559d6a0d353d751ca9e8f39fa02c37780"
                .to_string(),
            counters: vec![
                ("commit.vertices", 385),
                ("mempool.admitted", 1800),
                ("pull.retries", 19),
                ("rejected.duplicate", 9)
            ],
            trace: "99b4e5f30bc0823bb08b1983c35976056d140ccb5657fe18bcf516949b2d0b15".to_string()
        }
    );
    let (spec, dir) = recovery_spec(42, "pin");
    let recovered = sim_fingerprint(spec, Micros::from_secs(300));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        recovered,
        SimFingerprint {
            handled_events: 1741,
            delivered_msgs: 1580,
            total_bytes: 2516201,
            bytes_by_kind: vec![
                ("rbc.cert", 61359),
                ("rbc.echo", 60816),
                ("rbc.pull", 192),
                ("rbc.pull_resp", 62504),
                ("rbc.val", 2296818),
                ("state.reply", 17568),
                ("state.request", 48),
                ("timeout", 2856),
                ("vote", 14040)
            ],
            committed_log: "7b223f9bd9401f2413582cc038349f170e3012fee808ebe222b9d6f565c5ff78"
                .to_string(),
            counters: vec![
                ("checkpoint.written", 4),
                ("commit.vertices", 160),
                ("mempool.admitted", 1440),
                ("rejected.duplicate", 6),
                ("state_transfer.requests", 3),
                ("wal.appends", 325),
                ("wal.bytes", 35917),
                ("wal.fsyncs", 333)
            ],
            trace: "c51641c7fbc4f1d5e0d890ef6497cf2c62958df910536e7c48e535c8ba9a331d".to_string()
        }
    );
}
