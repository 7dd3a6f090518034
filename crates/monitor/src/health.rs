//! Tribe-level health aggregation: one verdict over all parties' detector
//! state, with the minority view attributed to specific parties, plus the
//! machine-readable exports (NDJSON snapshot line, Prometheus-style text
//! exposition).

use crate::alert::Detector;
use clanbft_telemetry::JsonObj;
use clanbft_types::{Micros, PartyId};

clanbft_telemetry::labelled! {
    /// The cluster-level health verdict. The labels name it in NDJSON and
    /// Prometheus exports.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum Verdict {
        /// No detector active on any party.
        Healthy = "healthy",
        /// At least one detector active, but a commit-capable majority is
        /// progressing.
        Degraded = "degraded",
        /// More than a third of the parties hold an active commit-stall —
        /// cluster progress itself is at risk.
        Stalled = "stalled",
    }
}

impl Verdict {
    /// Numeric encoding for the Prometheus gauge (0 healthy, 1 degraded,
    /// 2 stalled).
    pub fn code(self) -> u64 {
        self as u64
    }
}

/// One point-in-time cluster health assessment.
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
    /// Sim-time of the assessment.
    pub at: Micros,
    /// The merged verdict.
    pub verdict: Verdict,
    /// Parties known to the monitor.
    pub parties: u64,
    /// Active (fired, not yet cleared) detector conditions across all
    /// parties.
    pub active_alerts: u64,
    /// Cluster-wide maximum entered round.
    pub max_round: u64,
    /// Parties with an active commit-stall.
    pub stalled_parties: Vec<PartyId>,
    /// Parties with *any* active detector (superset of the stalled set).
    pub degraded_parties: Vec<PartyId>,
}

impl HealthSnapshot {
    /// Renders the snapshot as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        let stalled: Vec<u64> = self.stalled_parties.iter().map(|p| p.0 as u64).collect();
        let degraded: Vec<u64> = self.degraded_parties.iter().map(|p| p.0 as u64).collect();
        JsonObj::new()
            .u64("at", self.at.0)
            .str("health", self.verdict.label())
            .u64("parties", self.parties)
            .u64("active_alerts", self.active_alerts)
            .u64("max_round", self.max_round)
            .arr_u64("stalled", &stalled)
            .arr_u64("degraded", &degraded)
            .finish()
    }
}

/// Renders a Prometheus-style text exposition of the current health state.
///
/// Series: `clanbft_health_verdict` (0/1/2), `clanbft_health_parties`,
/// `clanbft_health_max_round`, `clanbft_alert_active{detector,party}` for
/// every currently-active condition, and `clanbft_alert_fires_total
/// {detector}` cumulative fire counts.
pub fn prometheus_exposition(
    snap: &HealthSnapshot,
    active: &[(Detector, PartyId)],
    fire_totals: &[(Detector, u64)],
) -> String {
    let mut out = String::new();
    out.push_str("# TYPE clanbft_health_verdict gauge\n");
    out.push_str(&format!("clanbft_health_verdict {}\n", snap.verdict.code()));
    out.push_str("# TYPE clanbft_health_parties gauge\n");
    out.push_str(&format!("clanbft_health_parties {}\n", snap.parties));
    out.push_str("# TYPE clanbft_health_max_round gauge\n");
    out.push_str(&format!("clanbft_health_max_round {}\n", snap.max_round));
    out.push_str("# TYPE clanbft_alert_active gauge\n");
    for (d, p) in active {
        out.push_str(&format!(
            "clanbft_alert_active{{detector=\"{}\",party=\"{}\"}} 1\n",
            d.label(),
            p.0
        ));
    }
    out.push_str("# TYPE clanbft_alert_fires_total counter\n");
    for (d, n) in fire_totals {
        out.push_str(&format!(
            "clanbft_alert_fires_total{{detector=\"{}\"}} {}\n",
            d.label(),
            n
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_ndjson_is_stable() {
        let s = HealthSnapshot {
            at: Micros(2_000_000),
            verdict: Verdict::Degraded,
            parties: 4,
            active_alerts: 2,
            max_round: 9,
            stalled_parties: vec![PartyId(3)],
            degraded_parties: vec![PartyId(1), PartyId(3)],
        };
        assert_eq!(
            s.to_ndjson(),
            r#"{"at":2000000,"health":"degraded","parties":4,"active_alerts":2,"max_round":9,"stalled":[3],"degraded":[1,3]}"#
        );
    }

    #[test]
    fn exposition_lists_active_series() {
        let s = HealthSnapshot {
            at: Micros(1),
            verdict: Verdict::Stalled,
            parties: 4,
            active_alerts: 1,
            max_round: 3,
            stalled_parties: vec![PartyId(0)],
            degraded_parties: vec![PartyId(0)],
        };
        let text = prometheus_exposition(
            &s,
            &[(Detector::CommitStall, PartyId(0))],
            &[(Detector::CommitStall, 2)],
        );
        assert!(text.contains("clanbft_health_verdict 2\n"));
        assert!(text.contains("clanbft_alert_active{detector=\"commit_stall\",party=\"0\"} 1\n"));
        assert!(text.contains("clanbft_alert_fires_total{detector=\"commit_stall\"} 2\n"));
    }
}
