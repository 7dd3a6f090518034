//! Detector thresholds and hysteresis tuning.

use clanbft_types::Micros;

/// All detector thresholds in one place.
///
/// The defaults are sized for the repo's evaluation tribes (seconds-scale
/// round trips, sub-second commit cadence): benign runs stay strictly below
/// every fire threshold, while the fault matrices (withholding, crashes,
/// equivocation) cross them within a couple of rounds. Offline replay
/// (`clanbft-inspect alerts`) uses the same defaults, so online and
/// post-mortem verdicts agree by construction.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Commit-stall watchdog: fire when a party's newest commit lags the
    /// cluster's newest commit by more than this. Judged against the
    /// *other* parties' progress (not wall time), so a quiescent run-end
    /// never fires it.
    pub stall_after: Micros,
    /// Round-skew: fire when a party's entered round trails the cluster
    /// maximum by at least this many rounds.
    pub skew_rounds: u64,
    /// Buffer growth: fire when any `buf.*` occupancy gauge reaches this.
    pub buffer_hi: u64,
    /// Buffer growth clears when every `buf.*` gauge is back at or below
    /// this (hysteresis gap prevents flapping).
    pub buffer_lo: u64,
    /// Rolling window for the pull-retry storm detector.
    pub retry_window: Micros,
    /// Pull retries within the window that fire the storm detector.
    pub retry_fire: u64,
    /// The storm clears when the window count falls to or below this.
    pub retry_clear: u64,
    /// Rolling window for the evidence-rate detector.
    pub evidence_window: Micros,
    /// Evidence records against one culprit within the window that fire.
    pub evidence_fire: u64,
    /// Rolling window for the mempool-collapse detector.
    pub mempool_window: Micros,
    /// Capacity rejections within the window that fire the collapse
    /// detector.
    pub mempool_reject_fire: u64,
    /// A WAL fsync slower than this (host-measured, microseconds) counts as
    /// slow.
    pub wal_fsync_slow_us: u64,
    /// Slow fsyncs within the window that fire the degradation detector.
    pub wal_fsync_fire: u64,
    /// Rolling window for the WAL-degradation detector.
    pub wal_window: Micros,
    /// A checkpoint larger than this many bytes fires degradation
    /// immediately.
    pub checkpoint_bytes_hi: u64,
    /// Per-(detector, party) cap on fire transitions; beyond it further
    /// fire/clear pairs are counted as suppressed instead of emitted.
    pub rate_cap: u64,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            stall_after: Micros::from_millis(1_500),
            skew_rounds: 3,
            buffer_hi: 4_096,
            buffer_lo: 512,
            retry_window: Micros::from_secs(1),
            retry_fire: 6,
            retry_clear: 1,
            evidence_window: Micros::from_secs(2),
            evidence_fire: 1,
            mempool_window: Micros::from_secs(1),
            mempool_reject_fire: 64,
            wal_fsync_slow_us: 50_000,
            wal_fsync_fire: 3,
            wal_window: Micros::from_secs(5),
            checkpoint_bytes_hi: 64 * 1024 * 1024,
            rate_cap: 16,
        }
    }
}
