//! Online health monitoring over live runs: the benign matrix must be
//! alert-free *by construction* — every detector silent, verdict healthy,
//! and the offline replay of the recorded trace silent too — across
//! baseline, single-clan and multi-clan topologies. Detector *recall*
//! (attacks firing the expected detector) lives in `tests/adversary.rs`
//! and `tests/fault_injection.rs`; this file pins detector *precision*.

mod common;

use clanbft_inspect::{alert_report, Trace};
use clanbft_monitor::{HealthMonitor, Verdict};
use clanbft_sim::tribe::{elect_clan, partition_clans};
use clanbft_sim::TribeSpec;
use clanbft_types::Micros;

/// Builds `spec` with a fresh monitor and a recorder attached, runs it to
/// quiescence, and returns the settled monitor and the trace, which has
/// passed the invariant gate.
fn run_monitored(mut spec: TribeSpec) -> (HealthMonitor, Trace) {
    let monitor = HealthMonitor::default();
    spec.monitor = Some(monitor.clone());
    let trace = common::run_judged(spec, Micros::from_secs(240)).trace;
    monitor.settle();
    (monitor, trace)
}

/// The benign contract: zero alerts, healthy verdict, and a trace that
/// replays offline without an alert.
fn assert_benign((monitor, trace): &(HealthMonitor, Trace), label: &str) {
    let report = alert_report(trace);
    assert!(
        report.contains("no alerts") && report.contains("verdict: healthy"),
        "{label}: offline replay alerted:\n{report}"
    );
    let alerts = monitor.alerts();
    assert!(
        alerts.is_empty(),
        "{label}: benign run emitted alerts: {alerts:?}"
    );
    assert_eq!(monitor.alerts_ndjson(), "", "{label}: NDJSON not empty");
    let snap = monitor.assess();
    assert_eq!(snap.verdict, Verdict::Healthy, "{label}: {snap:?}");
    assert!(snap.stalled_parties.is_empty(), "{label}: {snap:?}");
    assert!(snap.degraded_parties.is_empty(), "{label}: {snap:?}");
    assert_eq!(snap.active_alerts, 0, "{label}: {snap:?}");
}

#[test]
fn benign_baseline_is_alert_free() {
    let mut spec = TribeSpec::new(7);
    spec.txs_per_proposal = 40;
    spec.max_round = Some(8);
    let run = run_monitored(spec);
    assert_benign(&run, "baseline");
    // All seven parties are visible to the verdict even though only the
    // event stream fed the bank.
    assert_eq!(run.0.assess().parties, 7);
}

#[test]
fn benign_single_clan_is_alert_free() {
    // Once at the default pull deadline, and once at the 20 ms one the
    // withhold runs of `tests/determinism.rs` and `tests/fault_injection.rs`
    // use: the short deadline by itself must not read as a pull-retry
    // storm, or a storm fired under attack would prove nothing.
    for pull_retry_ms in [500, 20] {
        let mut spec = TribeSpec::new(7);
        spec.clans = Some(vec![elect_clan(7, 4, 42)]);
        spec.txs_per_proposal = 40;
        spec.max_round = Some(8);
        spec.pull_retry = Micros::from_millis(pull_retry_ms);
        spec.seed = 42;
        let label = format!("single-clan, {pull_retry_ms} ms pull deadline");
        assert_benign(&run_monitored(spec), &label);
    }
}

#[test]
fn benign_multi_clan_is_alert_free() {
    let mut spec = TribeSpec::new(9);
    spec.clans = Some(partition_clans(9, 3, 5));
    spec.txs_per_proposal = 40;
    spec.max_round = Some(8);
    assert_benign(&run_monitored(spec), "multi-clan");
}
