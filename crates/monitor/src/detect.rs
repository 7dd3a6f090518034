//! The streaming detector bank: per-party rolling windows, hysteresis and
//! alert emission.
//!
//! The bank is a pure state machine over the telemetry surface — stamped
//! protocol events plus party-tagged gauge/counter/histogram samples. Time
//! never comes from the host clock: `now` is the maximum event stamp seen,
//! so the same event stream always produces the same alert stream
//! (determinism pins rely on this). The one host-measured input is the WAL
//! fsync-latency histogram; its detector therefore only appears in runs
//! with durable storage and is excluded from byte-exact pins.

use crate::alert::{Alert, AlertKind, Detector};
use crate::config::MonitorConfig;
use crate::health::{HealthSnapshot, Verdict};
use clanbft_telemetry::{counters, Event, RbcPhase, Stamped};
use clanbft_types::{Micros, PartyId, Round};
use std::collections::{BTreeMap, VecDeque};

/// Fire/clear state of one detector for one party.
#[derive(Default, Clone)]
struct Hysteresis {
    /// Condition currently held.
    active: bool,
    /// Fire transitions emitted so far.
    fires: u64,
    /// Transitions swallowed by the rate cap.
    suppressed: u64,
    /// The active condition's fire was suppressed, so its clear must be
    /// suppressed too (the emitted stream stays pairwise balanced).
    suppressing: bool,
}

/// A rolling event-time window of weighted stamps.
#[derive(Default)]
struct Window {
    stamps: VecDeque<(Micros, u64)>,
    /// Sum of the weights held.
    total: u64,
}

impl Window {
    /// Drops every stamp older than `span` before `at`; returns the weight
    /// left.
    fn expire(&mut self, at: Micros, span: Micros) -> u64 {
        let cut = at.saturating_sub(span);
        while let Some(&(stamp, weight)) = self.stamps.front() {
            if stamp >= cut {
                break;
            }
            self.stamps.pop_front();
            self.total -= weight;
        }
        self.total
    }

    /// Adds `weight` at `at`, then expires as of `at`; returns the weight
    /// now in the window.
    fn push(&mut self, at: Micros, weight: u64, span: Micros) -> u64 {
        self.stamps.push_back((at, weight));
        self.total += weight;
        self.expire(at, span)
    }
}

/// The detectors that judge a rolling [`Window`], in the order a sweep
/// clears them.
const WINDOWED: [Detector; 4] = [
    Detector::PullRetryStorm,
    Detector::EvidenceSpike,
    Detector::MempoolCollapse,
    Detector::WalDegradation,
];

/// A windowed detector's tuning: `(span, fire_at, clear_at)` — it fires
/// when the window holds at least `fire_at` and a sweep clears it once the
/// window has drained to `clear_at` or less.
fn window_tuning(cfg: &MonitorConfig, detector: Detector) -> (Micros, u64, u64) {
    match detector {
        Detector::PullRetryStorm => (cfg.retry_window, cfg.retry_fire, cfg.retry_clear),
        Detector::EvidenceSpike => (cfg.evidence_window, cfg.evidence_fire, 0),
        Detector::MempoolCollapse => (cfg.mempool_window, cfg.mempool_reject_fire, 0),
        Detector::WalDegradation => (cfg.wal_window, cfg.wal_fsync_fire, 0),
        _ => unreachable!("{detector:?} has no rolling window"),
    }
}

/// Everything the bank tracks about one party.
#[derive(Default)]
struct PartyState {
    /// Last round entered.
    round: u64,
    /// Stamp of the party's newest commit.
    last_commit_at: Option<Micros>,
    /// Rolling windows of the [`WINDOWED`] detectors, by detector index:
    /// pull-retry stamps, evidence stamps (this party as culprit),
    /// capacity-rejection deltas, slow-fsync stamps.
    windows: [Window; Detector::COUNT],
    /// Newest value of every `buf.*` occupancy gauge.
    buf_gauges: BTreeMap<&'static str, u64>,
    /// Per-detector fire/clear state.
    hys: [Hysteresis; Detector::COUNT],
}

/// The emitted alert stream and the rate cap that gates it.
struct AlertLog {
    alerts: Vec<Alert>,
    rate_cap: u64,
}

impl AlertLog {
    /// Moves `party`'s `detector` to `fire` (or to cleared) with hysteresis
    /// and the rate cap applied; a no-op when the condition already stands.
    /// The evidence string is only built when an alert is actually emitted.
    fn set(
        &mut self,
        party: PartyId,
        state: &mut PartyState,
        detector: Detector,
        fire: bool,
        at: Micros,
        evidence: impl FnOnce() -> String,
    ) {
        let h = &mut state.hys[detector.index()];
        if h.active == fire {
            return;
        }
        h.active = fire;
        if fire {
            h.fires += 1;
            if h.fires > self.rate_cap {
                h.suppressed += 1;
                h.suppressing = true;
                return;
            }
        } else if h.suppressing {
            h.suppressing = false;
            h.suppressed += 1;
            return;
        }
        self.alerts.push(Alert {
            at,
            detector,
            kind: if fire {
                AlertKind::Fire
            } else {
                AlertKind::Clear
            },
            severity: detector.severity(),
            party,
            round: Round(state.round),
            evidence: evidence(),
        });
    }
}

/// The streaming detector bank shared by the online monitor and offline
/// replay.
pub struct DetectorBank {
    cfg: MonitorConfig,
    parties: BTreeMap<PartyId, PartyState>,
    /// Maximum event stamp seen (the bank's clock).
    now: Micros,
    /// First event stamp seen (stall baseline for parties that never
    /// commit).
    started_at: Option<Micros>,
    /// Cluster-wide newest commit stamp and the sequence it carried.
    frontier_at: Option<Micros>,
    frontier_seq: u64,
    /// Cluster-wide maximum entered round.
    max_round: u64,
    log: AlertLog,
    snapshots: Vec<HealthSnapshot>,
    snapshots_skipped: u64,
    last_snapshot_at: Option<Micros>,
}

impl DetectorBank {
    /// An empty bank with the given thresholds.
    pub fn new(cfg: MonitorConfig) -> DetectorBank {
        DetectorBank {
            log: AlertLog {
                alerts: Vec::new(),
                rate_cap: cfg.rate_cap,
            },
            cfg,
            parties: BTreeMap::new(),
            now: Micros::ZERO,
            started_at: None,
            frontier_at: None,
            frontier_seq: 0,
            max_round: 0,
            snapshots: Vec::new(),
            snapshots_skipped: 0,
            last_snapshot_at: None,
        }
    }

    /// Registers a party so cluster verdicts cover it even before its first
    /// event arrives.
    pub fn register(&mut self, party: PartyId) {
        self.parties.entry(party).or_default();
    }

    /// Consumes one stamped protocol event.
    pub fn observe_event(&mut self, s: &Stamped) {
        self.started_at.get_or_insert(s.at);
        self.now = self.now.max(s.at);
        match &s.event {
            Event::RoundEntered { round } => self.on_round_entered(s.party, *round, s.at),
            Event::VertexCommitted { sequence, .. } => self.on_commit(s.party, *sequence, s.at),
            Event::Rbc {
                phase: RbcPhase::PullRetry,
                round,
                source,
            } => {
                let span = self.cfg.retry_window.0;
                self.on_window_sample(s.party, Detector::PullRetryStorm, s.at, 1, |held| {
                    format!(
                        "{held} pull retries in {span}us window (latest for round {} from party {})",
                        round.0, source.0
                    )
                });
            }
            Event::EvidenceRecorded { culprit, .. } => {
                let span = self.cfg.evidence_window.0;
                self.on_window_sample(*culprit, Detector::EvidenceSpike, s.at, 1, |held| {
                    format!("{held} evidence records in {span}us window")
                });
            }
            _ => {}
        }
        self.maybe_snapshot();
    }

    /// Consumes one party-tagged gauge sample.
    pub fn observe_gauge(&mut self, party: PartyId, gauge: &'static str, value: u64) {
        if !gauge.starts_with("buf.") {
            return;
        }
        let (cfg, now) = (&self.cfg, self.now);
        let state = self.parties.entry(party).or_default();
        state.buf_gauges.insert(gauge, value);
        let over = state.buf_gauges.iter().find(|(_, v)| **v >= cfg.buffer_hi);
        if let Some((&name, &v)) = over {
            self.log
                .set(party, state, Detector::BufferGrowth, true, now, || {
                    format!("{name} at {v} >= {}", cfg.buffer_hi)
                });
        } else if state.buf_gauges.values().all(|v| *v <= cfg.buffer_lo) {
            self.log
                .set(party, state, Detector::BufferGrowth, false, now, || {
                    format!("all buf.* gauges <= {}", cfg.buffer_lo)
                });
        }
    }

    /// Consumes one party-tagged counter increment.
    pub fn observe_counter(&mut self, party: PartyId, counter: &'static str, delta: u64) {
        if counter != counters::MEMPOOL_REJECTED_FULL || delta == 0 {
            return;
        }
        let (now, span) = (self.now, self.cfg.mempool_window.0);
        self.on_window_sample(party, Detector::MempoolCollapse, now, delta, |held| {
            format!("{held} capacity rejections in {span}us window")
        });
    }

    /// Consumes one party-tagged histogram sample.
    pub fn observe_histogram(&mut self, party: PartyId, metric: &'static str, value: u64) {
        let (now, slow, big) = (
            self.now,
            self.cfg.wal_fsync_slow_us,
            self.cfg.checkpoint_bytes_hi,
        );
        match metric {
            counters::WAL_FSYNC_MICROS if value >= slow => {
                self.on_window_sample(party, Detector::WalDegradation, now, 1, |held| {
                    format!("{held} fsyncs slower than {slow}us in window")
                });
            }
            counters::CHECKPOINT_BYTES if value >= big => {
                let state = self.parties.entry(party).or_default();
                self.log
                    .set(party, state, Detector::WalDegradation, true, now, || {
                        format!("checkpoint of {value} bytes >= {big}")
                    });
            }
            _ => {}
        }
    }

    // --- event handlers -----------------------------------------------------

    /// One sample of weight `weight` for a [`WINDOWED`] detector: push it
    /// into `party`'s window and fire once the window holds the detector's
    /// threshold. `evidence` renders the fire's evidence from the weight
    /// held.
    fn on_window_sample(
        &mut self,
        party: PartyId,
        detector: Detector,
        at: Micros,
        weight: u64,
        evidence: impl FnOnce(u64) -> String,
    ) {
        let (span, fire_at, _) = window_tuning(&self.cfg, detector);
        let state = self.parties.entry(party).or_default();
        let held = state.windows[detector.index()].push(at, weight, span);
        if held >= fire_at {
            self.log
                .set(party, state, detector, true, at, || evidence(held));
        }
    }

    fn on_round_entered(&mut self, party: PartyId, round: Round, at: Micros) {
        self.parties.entry(party).or_default().round = round.0;
        let skew = self.cfg.skew_rounds;
        if round.0 > self.max_round {
            self.max_round = round.0;
            // The frontier moved: re-judge every party's skew.
            let max_round = self.max_round;
            for (&pid, state) in self.parties.iter_mut() {
                let at_round = state.round;
                let fire = max_round.saturating_sub(at_round) >= skew;
                self.log.set(pid, state, Detector::RoundSkew, fire, at, || {
                    if fire {
                        format!("at round {at_round} while cluster reached {max_round}")
                    } else {
                        format!("caught up to round {at_round}")
                    }
                });
            }
        } else if self.max_round.saturating_sub(round.0) < skew {
            // This party advanced within a known frontier: it may have just
            // caught back up.
            let state = self.parties.entry(party).or_default();
            self.log
                .set(party, state, Detector::RoundSkew, false, at, || {
                    format!("caught up to round {}", round.0)
                });
        }
    }

    fn on_commit(&mut self, party: PartyId, sequence: u64, at: Micros) {
        let state = self.parties.entry(party).or_default();
        state.last_commit_at = Some(at);
        self.log
            .set(party, state, Detector::CommitStall, false, at, || {
                format!("committed seq {sequence}")
            });
        if self.frontier_at.map_or(true, |f| at > f) {
            self.frontier_at = Some(at);
            self.frontier_seq = self.frontier_seq.max(sequence);
            self.scan_stalls(at);
            self.sweep_windows(at);
        }
    }

    // --- periodic scans -----------------------------------------------------

    /// Judges every party's commit lag against the cluster frontier. Runs
    /// whenever the frontier advances: a stalled party is detected by the
    /// *others'* progress, so a quiescent run end (nobody committing) never
    /// fires.
    fn scan_stalls(&mut self, at: Micros) {
        let Some(frontier) = self.frontier_at else {
            return;
        };
        let (started, frontier_seq) = (self.started_at.unwrap_or(Micros::ZERO), self.frontier_seq);
        for (&pid, state) in self.parties.iter_mut() {
            let lag = frontier.saturating_sub(state.last_commit_at.unwrap_or(started));
            if lag > self.cfg.stall_after {
                self.log
                    .set(pid, state, Detector::CommitStall, true, at, || {
                        format!(
                            "no commit for {}us behind cluster frontier (seq {frontier_seq})",
                            lag.0
                        )
                    });
            }
        }
    }

    /// Expires rolling windows and clears windowed detectors whose
    /// condition has drained. Driven off commit-frontier advances and
    /// snapshots, which is frequent enough for prompt clears.
    fn sweep_windows(&mut self, at: Micros) {
        for (&pid, state) in self.parties.iter_mut() {
            for detector in WINDOWED {
                let (span, _, clear_at) = window_tuning(&self.cfg, detector);
                let held = state.windows[detector.index()].expire(at, span);
                if held > clear_at {
                    continue;
                }
                self.log
                    .set(pid, state, detector, false, at, || match detector {
                        Detector::PullRetryStorm => format!("window drained to {held} retries"),
                        Detector::EvidenceSpike => "evidence window drained".to_string(),
                        Detector::MempoolCollapse => "rejection window drained".to_string(),
                        _ => "slow-fsync window drained".to_string(),
                    });
            }
        }
    }

    fn maybe_snapshot(&mut self) {
        let due = match self.last_snapshot_at {
            None => true,
            Some(last) => self.now.saturating_sub(last) >= self.cfg.snapshot_every,
        };
        if !due {
            return;
        }
        self.last_snapshot_at = Some(self.now);
        self.sweep_windows(self.now);
        let snap = self.assess();
        if self.snapshots.len() < self.cfg.snapshot_cap {
            self.snapshots.push(snap);
        } else {
            self.snapshots_skipped += 1;
        }
    }

    // --- readout ------------------------------------------------------------

    /// Every alert emitted so far, in emission order.
    pub fn alerts(&self) -> &[Alert] {
        &self.log.alerts
    }

    /// `(detector, party)` pairs whose condition is currently held.
    pub fn active(&self) -> Vec<(Detector, PartyId)> {
        let mut out = Vec::new();
        for (&pid, state) in &self.parties {
            for d in Detector::ALL {
                if state.hys[d.index()].active {
                    out.push((d, pid));
                }
            }
        }
        out
    }

    /// Whether `detector` is currently firing for `party`.
    pub fn is_active(&self, detector: Detector, party: PartyId) -> bool {
        self.parties
            .get(&party)
            .map(|s| s.hys[detector.index()].active)
            .unwrap_or(false)
    }

    /// Transitions swallowed by the per-detector rate caps.
    pub fn suppressed(&self) -> u64 {
        self.parties
            .values()
            .flat_map(|s| s.hys.iter())
            .map(|h| h.suppressed)
            .sum()
    }

    /// Cluster-wide maximum entered round.
    pub fn max_round(&self) -> u64 {
        self.max_round
    }

    /// Expires windows at the current clock and emits any resulting clears.
    /// Call at end of run before the final verdict so conditions that
    /// drained during the tail are judged cleared.
    pub fn settle(&mut self) {
        self.sweep_windows(self.now);
    }

    /// The current cluster-health verdict with per-party attribution.
    pub fn assess(&self) -> HealthSnapshot {
        let active = self.active();
        let stalled: Vec<PartyId> = active
            .iter()
            .filter(|(d, _)| *d == Detector::CommitStall)
            .map(|(_, p)| *p)
            .collect();
        // `active` is in party order, so equal neighbours are the repeats.
        let mut degraded: Vec<PartyId> = active.iter().map(|(_, p)| *p).collect();
        degraded.dedup();
        let n = self.parties.len();
        let verdict = if n > 0 && stalled.len() * 3 > n {
            Verdict::Stalled
        } else if !degraded.is_empty() {
            Verdict::Degraded
        } else {
            Verdict::Healthy
        };
        HealthSnapshot {
            at: self.now,
            verdict,
            parties: n as u64,
            active_alerts: active.len() as u64,
            max_round: self.max_round,
            stalled_parties: stalled,
            degraded_parties: degraded,
        }
    }

    /// The periodic snapshot history (bounded by `snapshot_cap`).
    pub fn snapshots(&self) -> &[HealthSnapshot] {
        &self.snapshots
    }

    /// Snapshots dropped once the history bound was reached.
    pub fn snapshots_skipped(&self) -> u64 {
        self.snapshots_skipped
    }

    /// Fire counts per detector (for the Prometheus exposition).
    pub fn fire_totals(&self) -> [(Detector, u64); Detector::COUNT] {
        let mut out = Detector::ALL.map(|d| (d, 0u64));
        for state in self.parties.values() {
            for d in Detector::ALL {
                out[d.index()].1 += state.hys[d.index()].fires;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bank() -> DetectorBank {
        let mut b = DetectorBank::new(MonitorConfig::default());
        for p in 0..4 {
            b.register(PartyId(p));
        }
        b
    }

    fn commit(b: &mut DetectorBank, p: u32, seq: u64, at_ms: u64) {
        b.observe_event(&Stamped {
            at: Micros::from_millis(at_ms),
            party: PartyId(p),
            event: Event::VertexCommitted {
                round: Round(1),
                source: PartyId(p),
                leader: true,
                sequence: seq,
            },
        });
    }

    #[test]
    fn benign_commit_cadence_stays_silent() {
        let mut b = bank();
        for step in 0..20u64 {
            for p in 0..4 {
                commit(&mut b, p, step, step * 300 + p as u64);
            }
        }
        assert!(b.alerts().is_empty(), "alerts: {:?}", b.alerts());
        assert_eq!(b.assess().verdict, Verdict::Healthy);
    }

    #[test]
    fn lagging_party_fires_stall_then_clears() {
        let mut b = bank();
        // Everyone commits at t=0; then party 3 goes dark while the others
        // keep committing past the stall threshold.
        for p in 0..4 {
            commit(&mut b, p, 0, p as u64);
        }
        for step in 1..8u64 {
            for p in 0..3 {
                commit(&mut b, p, step, step * 400 + p as u64);
            }
        }
        let fires: Vec<&Alert> = b
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::Fire)
            .collect();
        assert_eq!(fires.len(), 1, "alerts: {:?}", b.alerts());
        assert_eq!(fires[0].detector, Detector::CommitStall);
        assert_eq!(fires[0].party, PartyId(3));
        assert!(b.is_active(Detector::CommitStall, PartyId(3)));
        assert_eq!(b.assess().verdict, Verdict::Degraded);
        assert_eq!(b.assess().stalled_parties, vec![PartyId(3)]);

        // The party recovers: its next commit clears the alert.
        commit(&mut b, 3, 8, 3_300);
        assert!(!b.is_active(Detector::CommitStall, PartyId(3)));
        let clears: Vec<&Alert> = b
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::Clear)
            .collect();
        assert_eq!(clears.len(), 1);
        assert_eq!(clears[0].detector, Detector::CommitStall);
        assert_eq!(b.assess().verdict, Verdict::Healthy);
    }

    #[test]
    fn majority_stall_is_a_stalled_verdict() {
        let mut b = bank();
        for p in 0..4 {
            commit(&mut b, p, 0, p as u64);
        }
        // Only party 0 keeps committing: 3 of 4 parties stall.
        for step in 1..8u64 {
            commit(&mut b, 0, step, step * 400);
        }
        assert_eq!(b.assess().verdict, Verdict::Stalled);
        assert_eq!(b.assess().stalled_parties.len(), 3);
    }

    #[test]
    fn round_skew_fires_and_clears() {
        let mut b = bank();
        let enter = |b: &mut DetectorBank, p: u32, r: u64, at: u64| {
            b.observe_event(&Stamped {
                at: Micros::from_millis(at),
                party: PartyId(p),
                event: Event::RoundEntered { round: Round(r) },
            });
        };
        for r in 1..=5u64 {
            for p in 0..3 {
                enter(&mut b, p, r, r * 100);
            }
            // Party 3 stays at round 1 after entering it once.
            if r == 1 {
                enter(&mut b, 3, 1, 100);
            }
        }
        assert!(b.is_active(Detector::RoundSkew, PartyId(3)));
        enter(&mut b, 3, 5, 600);
        assert!(!b.is_active(Detector::RoundSkew, PartyId(3)));
        let kinds: Vec<AlertKind> = b.alerts().iter().map(|a| a.kind).collect();
        assert_eq!(kinds, vec![AlertKind::Fire, AlertKind::Clear]);
    }

    #[test]
    fn pull_retry_storm_fires_and_drains() {
        let mut b = bank();
        for i in 0..6u64 {
            b.observe_event(&Stamped {
                at: Micros::from_millis(100 + i * 10),
                party: PartyId(2),
                event: Event::Rbc {
                    phase: RbcPhase::PullRetry,
                    round: Round(3),
                    source: PartyId(1),
                },
            });
        }
        assert!(b.is_active(Detector::PullRetryStorm, PartyId(2)));
        // Commits two seconds later expire the window and clear the storm.
        commit(&mut b, 0, 1, 2_500);
        commit(&mut b, 0, 2, 2_600);
        assert!(!b.is_active(Detector::PullRetryStorm, PartyId(2)));
    }

    #[test]
    fn evidence_spike_attributes_the_culprit() {
        let mut b = bank();
        b.observe_event(&Stamped {
            at: Micros::from_millis(500),
            party: PartyId(0),
            event: Event::EvidenceRecorded {
                kind: "equivocating_source",
                round: Round(2),
                culprit: PartyId(1),
            },
        });
        assert!(b.is_active(Detector::EvidenceSpike, PartyId(1)));
        let a = &b.alerts()[0];
        assert_eq!(a.party, PartyId(1));
        assert_eq!(a.detector, Detector::EvidenceSpike);
    }

    #[test]
    fn buffer_growth_uses_hi_lo_hysteresis() {
        let mut b = bank();
        b.observe_gauge(PartyId(1), counters::BUF_DAG_PENDING, 5_000);
        assert!(b.is_active(Detector::BufferGrowth, PartyId(1)));
        // Dropping below hi but above lo keeps the alert held.
        b.observe_gauge(PartyId(1), counters::BUF_DAG_PENDING, 2_000);
        assert!(b.is_active(Detector::BufferGrowth, PartyId(1)));
        b.observe_gauge(PartyId(1), counters::BUF_DAG_PENDING, 100);
        assert!(!b.is_active(Detector::BufferGrowth, PartyId(1)));
    }

    #[test]
    fn mempool_collapse_needs_the_rate() {
        let mut b = bank();
        b.observe_event(&Stamped {
            at: Micros::from_millis(100),
            party: PartyId(0),
            event: Event::RoundEntered { round: Round(1) },
        });
        b.observe_counter(PartyId(0), counters::MEMPOOL_REJECTED_FULL, 10);
        assert!(!b.is_active(Detector::MempoolCollapse, PartyId(0)));
        b.observe_counter(PartyId(0), counters::MEMPOOL_REJECTED_FULL, 60);
        assert!(b.is_active(Detector::MempoolCollapse, PartyId(0)));
    }

    #[test]
    fn wal_degradation_from_slow_fsyncs() {
        let mut b = bank();
        b.observe_event(&Stamped {
            at: Micros::from_millis(50),
            party: PartyId(0),
            event: Event::RoundEntered { round: Round(1) },
        });
        for _ in 0..3 {
            b.observe_histogram(PartyId(0), counters::WAL_FSYNC_MICROS, 80_000);
        }
        assert!(b.is_active(Detector::WalDegradation, PartyId(0)));
        // Fast fsyncs are ignored entirely.
        let fires_before = b.alerts().len();
        b.observe_histogram(PartyId(1), counters::WAL_FSYNC_MICROS, 200);
        assert_eq!(b.alerts().len(), fires_before);
    }

    #[test]
    fn rate_cap_suppresses_flapping() {
        let cfg = MonitorConfig {
            rate_cap: 2,
            evidence_window: Micros::from_millis(10),
            ..MonitorConfig::default()
        };
        let mut b = DetectorBank::new(cfg);
        b.register(PartyId(0));
        // Alternate evidence bursts with long silences so the detector
        // fires, clears, and fires again past the cap.
        for burst in 0..5u64 {
            b.observe_event(&Stamped {
                at: Micros::from_millis(burst * 1_000),
                party: PartyId(0),
                event: Event::EvidenceRecorded {
                    kind: "double_vote",
                    round: Round(burst),
                    culprit: PartyId(0),
                },
            });
            // A later commit sweeps the window and clears.
            commit(&mut b, 1, burst, burst * 1_000 + 500);
        }
        let fires = b
            .alerts()
            .iter()
            .filter(|a| a.kind == AlertKind::Fire && a.detector == Detector::EvidenceSpike)
            .count();
        assert_eq!(fires, 2, "alerts: {:?}", b.alerts());
        assert!(b.suppressed() > 0);
    }

    #[test]
    fn snapshots_accumulate_on_event_time() {
        let mut b = bank();
        for step in 0..10u64 {
            commit(&mut b, 0, step, step * 300);
        }
        assert!(b.snapshots().len() >= 2, "{}", b.snapshots().len());
        // Snapshot stamps are monotone.
        let stamps: Vec<u64> = b.snapshots().iter().map(|s| s.at.0).collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted);
    }
}
