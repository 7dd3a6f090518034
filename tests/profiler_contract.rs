//! What the hot-path profiler promises, on one pinned run: single-clan,
//! n = 12, clan 6, 10 rounds, seed 11, 200 txs per proposal — once with the
//! profiler disabled and twice profiled, in a binary that installs the
//! counting allocator.
//!
//! Everything asserted is what a same-seed run repeats exactly. What the
//! instruments cost in host time is `profiler.overhead_pct` in `benchmark/`,
//! measured with alternating runs.

use clanbft_inspect::{parse_profile, profile_diff, profile_report};
use clanbft_profiler as prof;
use clanbft_sim::{ExperimentSpec, Proto, RunMetrics};
use std::collections::BTreeSet;
use std::sync::OnceLock;

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

struct Runs {
    disabled: RunMetrics,
    profiled: [(RunMetrics, prof::Report); 2],
}

/// The three runs, made once on one thread (the enable flag is
/// process-wide, scope trees and allocation counters are per thread).
fn runs() -> &'static Runs {
    static RUNS: OnceLock<Runs> = OnceLock::new();
    RUNS.get_or_init(|| {
        let run = || {
            let mut spec = ExperimentSpec::new(Proto::SingleClan { clan_size: 6 }, 12, 200);
            spec.rounds = 10;
            spec.warmup_rounds = 2;
            spec.cooldown_rounds = 2;
            spec.seed = 11;
            spec.run()
        };
        let disabled = run();
        assert!(
            prof::take_report().scopes.is_empty(),
            "a disabled profiler accumulated scope data"
        );
        let profiled = [(); 2].map(|()| {
            prof::enable();
            let metrics = run();
            let report = prof::take_report();
            prof::disable();
            (metrics, report)
        });
        Runs { disabled, profiled }
    })
}

#[test]
fn profiling_never_changes_the_run() {
    let runs = runs();
    assert_eq!(runs.disabled.committed_txs, 8_400);
    assert_eq!(runs.disabled.sim_events, 40_022);
    for (metrics, _) in &runs.profiled {
        assert_eq!(metrics.committed_txs, runs.disabled.committed_txs);
        assert_eq!(metrics.sim_events, runs.disabled.sim_events);
    }
}

#[test]
fn the_profile_covers_the_pipeline_and_attributes_allocations() {
    let scopes = &runs().profiled[0].1.scopes;
    let stages: BTreeSet<&str> = scopes.iter().map(|s| s.name.as_str()).collect();
    let subsystems: BTreeSet<&str> = stages
        .iter()
        .map(|n| n.split('.').next().unwrap_or(n))
        .collect();
    assert!(stages.len() >= 8, "stages: {stages:?}");
    assert!(subsystems.len() >= 5, "subsystems: {subsystems:?}");
    // A new or a lost instrumented stage is a decision, not a drift.
    assert_eq!(stages.len(), 22, "distinct scope names: {stages:?}");
    assert!(
        scopes.iter().map(|s| s.alloc_count).sum::<u64>() > 0,
        "no allocations attributed despite the counting allocator"
    );
}

#[test]
fn same_seed_profiles_agree_on_every_count() {
    let [(_, a), (_, b)] = &runs().profiled;
    // Times vary with the host; the tree, its calls and what each path
    // allocated must not.
    let exact = |r: &prof::Report| -> Vec<(String, u64, u64, u64)> {
        let row = |s: &prof::ScopeStat| (s.path.clone(), s.calls, s.alloc_count, s.alloc_bytes);
        r.scopes.iter().map(row).collect()
    };
    assert_eq!(exact(a), exact(b));
    // The same judgement through the exported files and the inspect crate.
    let parse = |r: &prof::Report, label| parse_profile(&r.to_ndjson(label)).expect("profile");
    let diff = profile_diff(&parse(a, "a"), &parse(b, "b"));
    assert!(diff.contains("\ncounts: identical"), "{diff}");
}

#[test]
fn the_report_names_the_rbc_hot_stage() {
    let ndjson = runs().profiled[0].1.to_ndjson("pinned");
    let report = profile_report(&parse_profile(&ndjson).expect("profile"));
    assert!(report.contains("rbc.handle"), "{report}");
}
