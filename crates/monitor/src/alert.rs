//! Typed alerts: the monitor's one output vocabulary.
//!
//! Every detector emits the same shape — a [`Detector`] name, a fire/clear
//! transition, a severity, the party the finding is attributed to, the
//! round context and a human-readable evidence string. Alerts only ever
//! mark *transitions* (hysteresis lives in the detector bank), so a benign
//! run's alert stream is empty by construction rather than by filtering.

use clanbft_telemetry::JsonObj;
use clanbft_types::{Micros, PartyId, Round};

clanbft_telemetry::labelled! {
    /// The catalogue of online detectors. The labels name them in NDJSON
    /// alert lines and the `clanbft-inspect alerts` report.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    pub enum Detector {
        /// A party's commit frontier lags the cluster's newest commit by more
        /// than the configured stall threshold (no `Committed` within k·δ̂ of
        /// the parties that *are* progressing).
        CommitStall = "commit_stall",
        /// A party's current round trails the cluster's maximum entered round
        /// by the configured number of rounds.
        RoundSkew = "round_skew",
        /// A bounded buffer (`buf.*` occupancy gauge) crossed its high-water
        /// mark.
        BufferGrowth = "buffer_growth",
        /// Pull retries for a party clustered inside the rolling window — the
        /// signature of a withholding sender or a dead bulk link.
        PullRetryStorm = "pull_retry_storm",
        /// Byzantine evidence accumulated against a party inside the rolling
        /// window.
        EvidenceSpike = "evidence_spike",
        /// The mempool rejected admissions for capacity inside the rolling
        /// window — client backpressure, the saturation signal.
        MempoolCollapse = "mempool_collapse",
        /// Durability degradation: slow WAL fsyncs clustered in the window, or
        /// a checkpoint beyond the size bound.
        WalDegradation = "wal_degradation",
    }
}

impl Detector {
    /// Index into per-party hysteresis state (the position in [`Self::ALL`]).
    pub fn index(self) -> usize {
        self as usize
    }

    /// The severity this detector fires at.
    pub fn severity(self) -> Severity {
        match self {
            Detector::CommitStall | Detector::EvidenceSpike => Severity::Critical,
            _ => Severity::Warning,
        }
    }
}

clanbft_telemetry::labelled! {
    /// Alert severity.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum Severity {
        /// Degraded but live.
        Warning = "warning",
        /// Progress or safety at risk.
        Critical = "critical",
    }
}

clanbft_telemetry::labelled! {
    /// Whether an alert marks a condition starting or ending.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum AlertKind {
        /// The condition began.
        Fire = "fire",
        /// The condition ended.
        Clear = "clear",
    }
}

/// One fire or clear transition of one detector for one party.
#[derive(Clone, Debug)]
pub struct Alert {
    /// Simulated time of the transition.
    pub at: Micros,
    /// Which detector transitioned.
    pub detector: Detector,
    /// Fire or clear.
    pub kind: AlertKind,
    /// Severity (fixed per detector).
    pub severity: Severity,
    /// The party the finding is attributed to (the laggard, the culprit,
    /// the saturated node — per detector semantics).
    pub party: PartyId,
    /// Round context at transition time (the party's current round).
    pub round: Round,
    /// Human-readable supporting evidence, deterministic for sim-time
    /// driven detectors.
    pub evidence: String,
}

impl Alert {
    /// Renders the alert as one NDJSON line (no trailing newline).
    pub fn to_ndjson(&self) -> String {
        JsonObj::new()
            .u64("at", self.at.0)
            .str("alert", self.kind.label())
            .str("detector", self.detector.label())
            .str("severity", self.severity.label())
            .u64("party", self.party.0 as u64)
            .u64("round", self.round.0)
            .str("evidence", &self.evidence)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique_and_indexed() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, d) in Detector::ALL.iter().enumerate() {
            assert_eq!(d.index(), i, "catalogue order must match index");
            assert!(seen.insert(d.label()), "duplicate label {}", d.label());
        }
        assert_eq!(seen.len(), Detector::COUNT);
    }

    #[test]
    fn ndjson_line_is_stable() {
        let a = Alert {
            at: Micros(1_500_000),
            detector: Detector::CommitStall,
            kind: AlertKind::Fire,
            severity: Severity::Critical,
            party: PartyId(2),
            round: Round(7),
            evidence: "no commit for 1600000us behind cluster frontier".to_string(),
        };
        assert_eq!(
            a.to_ndjson(),
            r#"{"at":1500000,"alert":"fire","detector":"commit_stall","severity":"critical","party":2,"round":7,"evidence":"no commit for 1600000us behind cluster frontier"}"#
        );
    }
}
