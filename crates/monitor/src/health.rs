//! Tribe-level health aggregation: one verdict over all parties' detector
//! state, with the minority view attributed to specific parties.

use clanbft_types::PartyId;

clanbft_telemetry::labelled! {
    /// The cluster-level health verdict. The labels name it in the
    /// `clanbft-inspect alerts` report.
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

/// One cluster health assessment ([`crate::DetectorBank::assess`]).
#[derive(Clone, Debug)]
pub struct HealthSnapshot {
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
