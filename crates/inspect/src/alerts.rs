//! Offline replay of the online detector catalogue.
//!
//! `clanbft-inspect alerts <trace>` runs a recorded event stream through
//! the *same* `clanbft_monitor::DetectorBank` the live monitor uses, with
//! the same default thresholds — so a post-mortem verdict can never drift
//! from what the online monitor would have said about the run. Only the
//! event-driven detectors see input offline (commit stall, round skew,
//! pull-retry storm, evidence spike); gauge/counter/histogram-fed ones
//! (buffer growth, mempool collapse, WAL degradation) are online-only and
//! the report says so.

use crate::parse::Trace;
use clanbft_monitor::{replay_events, AlertKind, MonitorConfig};
use clanbft_types::PartyId;
use std::fmt::Write as _;

/// How many parties (`0..k`) to pre-register so verdicts cover the silent
/// ones: the declared tribe size, or one past the highest party seen — but
/// never more than the trace has events. Both are numbers written in
/// outside input; the event count is the input's size, and a trace cannot
/// justify more silent parties than that. (A party past the bound that does
/// appear registers itself on its first event.)
fn universe(trace: &Trace) -> u32 {
    let claimed = trace.meta.n.unwrap_or_else(|| {
        let highest = trace.events.iter().map(|s| u64::from(s.party.0)).max();
        highest.map_or(0, |p| p + 1)
    });
    u32::try_from(claimed.min(trace.events.len() as u64)).unwrap_or(u32::MAX)
}

/// Replays `trace` through the detector catalogue and renders the alert
/// report: the full fire/clear transcript, the per-party active set at end
/// of trace, and the final cluster verdict.
pub fn alert_report(trace: &Trace) -> String {
    let parties = universe(trace);
    let bank = replay_events(&trace.events, parties, MonitorConfig::default());

    let mut out = String::new();
    let _ = writeln!(
        out,
        "alert replay: {} event(s), {parties} parties",
        trace.events.len()
    );
    let _ = writeln!(
        out,
        "detectors: event-driven only (commit_stall, round_skew, pull_retry_storm, \
         evidence_spike); gauge-fed detectors need the live monitor"
    );
    out.push('\n');

    if bank.alerts().is_empty() {
        out.push_str("no alerts: every detector stayed silent\n");
    } else {
        let _ = writeln!(out, "transcript ({} transition(s)):", bank.alerts().len());
        for a in bank.alerts() {
            let _ = writeln!(
                out,
                "  t={:>10}us  {:<5} {:<16} {:<8} party {:>3}  round {:>3}  {}",
                a.at.0,
                a.kind.label(),
                a.detector.label(),
                a.severity.label(),
                a.party.0,
                a.round.0,
                a.evidence
            );
        }
    }
    out.push('\n');

    let active = bank.active();
    if active.is_empty() {
        out.push_str("active at end of trace: none\n");
    } else {
        out.push_str("active at end of trace:\n");
        for (d, p) in &active {
            let _ = writeln!(out, "  {:<16} party {}", d.label(), p.0);
        }
    }
    if bank.suppressed() > 0 {
        let _ = writeln!(
            out,
            "rate-capped: {} transition(s) suppressed",
            bank.suppressed()
        );
    }

    let snap = bank.assess();
    let fires = bank
        .alerts()
        .iter()
        .filter(|a| a.kind == AlertKind::Fire)
        .count();
    let list = |ps: &[PartyId]| -> String {
        if ps.is_empty() {
            "-".to_string()
        } else {
            ps.iter()
                .map(|p| p.0.to_string())
                .collect::<Vec<_>>()
                .join(",")
        }
    };
    let _ = writeln!(
        out,
        "\nverdict: {} ({} fire(s), {} active; stalled: {}; degraded: {}; max round {})",
        snap.verdict.label(),
        fires,
        snap.active_alerts,
        list(&snap.stalled_parties),
        list(&snap.degraded_parties),
        snap.max_round
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_trace;

    /// A synthetic benign trace: four parties, lockstep commit cadence.
    fn benign_trace() -> String {
        let mut out = String::new();
        for step in 0..8u64 {
            for p in 0..4u64 {
                out.push_str(&format!(
                    "{{\"at\":{},\"party\":{},\"ev\":\"vertex_committed\",\"round\":{},\
                     \"source\":{},\"leader\":true,\"seq\":{}}}\n",
                    step * 300_000 + p,
                    p,
                    step,
                    p,
                    step
                ));
            }
        }
        out
    }

    #[test]
    fn benign_trace_is_alert_free() {
        let trace = parse_trace(&benign_trace()).expect("parse");
        let report = alert_report(&trace);
        assert!(report.contains("no alerts"), "{report}");
        assert!(report.contains("verdict: healthy"), "{report}");
    }

    /// Golden pin of the full report on a trace where party 3 stops
    /// committing after step 0 — the commit-stall detector must fire for
    /// party 3 and the verdict degrade. The exact text is pinned so the
    /// offline replay output cannot drift silently.
    #[test]
    fn stall_trace_report_is_pinned() {
        let mut lines = String::new();
        for step in 0..8u64 {
            for p in 0..4u64 {
                if p == 3 && step > 0 {
                    continue;
                }
                lines.push_str(&format!(
                    "{{\"at\":{},\"party\":{},\"ev\":\"vertex_committed\",\"round\":{},\
                     \"source\":{},\"leader\":true,\"seq\":{}}}\n",
                    step * 400_000 + p,
                    p,
                    step,
                    p,
                    step
                ));
            }
        }
        let trace = parse_trace(&lines).expect("parse");
        let report = alert_report(&trace);
        let expected = concat!(
            "alert replay: 25 event(s), 4 parties\n",
            "detectors: event-driven only (commit_stall, round_skew, pull_retry_storm, ",
            "evidence_spike); gauge-fed detectors need the live monitor\n",
            "\n",
            "transcript (1 transition(s)):\n",
            "  t=   1600000us  fire  commit_stall     critical party   3  round   0  ",
            "no commit for 1599997us behind cluster frontier (seq 4)\n",
            "\n",
            "active at end of trace:\n",
            "  commit_stall     party 3\n",
            "\n",
            "verdict: degraded (1 fire(s), 1 active; stalled: 3; degraded: 3; max round 0)\n",
        );
        assert_eq!(report, expected);
    }

    /// Two inputs that used to take the replay down: a party id one below
    /// `u32::MAX + 1` overflowed the universe computation (panic in debug,
    /// zero parties in release), and a declared tribe of twenty million
    /// pre-registered as many party states for a two-line trace. The
    /// universe is bounded by the event count now; the parties that do
    /// appear still register themselves.
    #[test]
    fn hostile_party_numbers_cannot_size_the_universe() {
        let lone = "{\"at\":1,\"party\":4294967295,\"ev\":\"round_entered\",\"round\":1}\n";
        let trace = parse_trace(lone).expect("parse");
        assert_eq!(universe(&trace), 1);
        let report = alert_report(&trace);
        assert!(
            report.starts_with("alert replay: 1 event(s), 1 parties\n"),
            "{report}"
        );
        assert!(report.contains("verdict: healthy"), "{report}");

        let inflated = concat!(
            "{\"meta\":\"run\",\"n\":20000000,\"seed\":1,\"clans\":0}\n",
            "{\"at\":1,\"party\":0,\"ev\":\"round_entered\",\"round\":1}\n",
        );
        let trace = parse_trace(inflated).expect("parse");
        assert_eq!(universe(&trace), 1);
        assert!(alert_report(&trace).contains("verdict: healthy"));
    }
}
