//! Online health monitoring for clanbft runs (zero external deps).
//!
//! The rest of the observability stack explains a run after it ends
//! (black-box dump, spans, `clanbft-inspect`); this crate watches a run
//! while it is alive. A [`HealthMonitor`] taps the existing telemetry
//! stream — fanned out per party with [`Telemetry::tee_with`] — and feeds
//! a streaming [`DetectorBank`]:
//!
//! * **commit-stall watchdog** — a party's newest commit lags the cluster
//!   frontier beyond the threshold (judged by the *other* parties'
//!   progress, never by wall time, so quiescent run tails stay silent);
//! * **round skew** — a party's entered round trails the cluster maximum;
//! * **buffer growth** — a `buf.*` occupancy gauge crosses its high-water
//!   mark (clears only when all are back below the low-water mark);
//! * **pull-retry storm** — retries clustered in a rolling window, the
//!   signature of withholding;
//! * **evidence spike** — Byzantine evidence accumulating against a
//!   culprit;
//! * **mempool collapse** — capacity rejections clustered in a window;
//! * **WAL degradation** — slow fsyncs or oversized checkpoints.
//!
//! Each detector emits typed [`Alert`]s with hysteresis (fire/clear pairs,
//! dedup while held, per-detector rate caps), so a benign run's alert
//! stream is empty *by construction*. A tribe-level aggregation
//! ([`DetectorBank::assess`]) merges per-party state into one
//! [`Verdict`] — healthy / degraded / stalled — with the minority view
//! attributed to specific parties, and periodic [`HealthSnapshot`]s are
//! exportable as NDJSON lines or a Prometheus-style text exposition.
//!
//! The same [`DetectorBank`] replays recorded traces offline
//! ([`replay_events`], used by `clanbft-inspect alerts`), so online and
//! post-mortem verdicts cannot drift.
//!
//! [`Telemetry::tee_with`]: clanbft_telemetry::Telemetry::tee_with

pub mod alert;
pub mod config;
pub mod detect;
pub mod health;

pub use alert::{Alert, AlertKind, Detector, Severity};
pub use config::MonitorConfig;
pub use detect::DetectorBank;
pub use health::{prometheus_exposition, HealthSnapshot, Verdict};

use clanbft_telemetry::{Event, Recorder, Stamped};
use clanbft_types::{Micros, PartyId};
use std::sync::{Arc, Mutex};

/// The shared online monitor: a cloneable handle over one [`DetectorBank`].
///
/// Wire-up: for each party, tee `monitor.probe(party)` into the node's
/// telemetry so party-anonymous gauge/counter/histogram samples arrive
/// attributed; tee `monitor.observer()` into the simulator's handle so the
/// globally-stamped event stream (which carries its own party) arrives
/// exactly once.
///
/// The bank sits behind a mutex. In the single-threaded simulator the lock
/// is never contended; under the threaded live transport it serialises the
/// parties' streams, which is exactly the merge the detectors need.
#[derive(Clone)]
pub struct HealthMonitor {
    bank: Arc<Mutex<DetectorBank>>,
}

impl Default for HealthMonitor {
    fn default() -> HealthMonitor {
        HealthMonitor::new(MonitorConfig::default())
    }
}

impl HealthMonitor {
    /// A fresh monitor with the given thresholds.
    pub fn new(cfg: MonitorConfig) -> HealthMonitor {
        HealthMonitor {
            bank: Arc::new(Mutex::new(DetectorBank::new(cfg))),
        }
    }

    /// Registers `n` parties (0..n) up front so cluster verdicts cover
    /// parties that never produce an event (e.g. crashed at startup).
    pub fn expect_parties(&self, n: u32) {
        let mut bank = self.lock();
        for p in 0..n {
            bank.register(PartyId(p));
        }
    }

    /// A recorder that attributes metric samples to `party` and forwards
    /// events (which carry their own stamp party). Tee it into that
    /// party's node telemetry.
    pub fn probe(&self, party: PartyId) -> Arc<dyn Recorder> {
        Arc::new(Probe {
            monitor: self.clone(),
            party: Some(party),
        })
    }

    /// An event-only recorder for globally-scoped telemetry handles (the
    /// simulator's): events flow to the detectors, metric samples are
    /// dropped because they cannot be attributed to a party.
    pub fn observer(&self) -> Arc<dyn Recorder> {
        Arc::new(Probe {
            monitor: self.clone(),
            party: None,
        })
    }

    /// Runs `f` against the bank (alerts, snapshots, assess, settle, ...).
    pub fn with_bank<T>(&self, f: impl FnOnce(&mut DetectorBank) -> T) -> T {
        f(&mut self.lock())
    }

    /// Expires rolling windows at the current event-time and emits
    /// resulting clears. Call once at end of run, before the final verdict.
    pub fn settle(&self) {
        self.lock().settle();
    }

    /// The current cluster-health verdict.
    pub fn assess(&self) -> HealthSnapshot {
        self.lock().assess()
    }

    /// Every alert emitted so far.
    pub fn alerts(&self) -> Vec<Alert> {
        self.lock().alerts().to_vec()
    }

    /// The full alert stream as NDJSON, one line per alert (empty string
    /// for an alert-free run).
    pub fn alerts_ndjson(&self) -> String {
        let line = |a: &Alert| a.to_ndjson() + "\n";
        self.lock().alerts().iter().map(line).collect()
    }

    /// The periodic snapshot history as NDJSON, one line per snapshot.
    pub fn snapshots_ndjson(&self) -> String {
        let line = |s: &HealthSnapshot| s.to_ndjson() + "\n";
        self.lock().snapshots().iter().map(line).collect()
    }

    /// Prometheus-style text exposition of the current health state.
    pub fn prometheus(&self) -> String {
        let bank = self.lock();
        prometheus_exposition(&bank.assess(), &bank.active(), &bank.fire_totals())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, DetectorBank> {
        self.bank.lock().expect("monitor lock")
    }
}

/// The monitor's tap on a telemetry handle: events always reach the bank;
/// metric samples reach it attributed to `party`, or not at all when the
/// handle has no party to attribute them to.
struct Probe {
    monitor: HealthMonitor,
    party: Option<PartyId>,
}

impl Recorder for Probe {
    fn record(&self, metric: &'static str, value: u64) {
        if let Some(party) = self.party {
            self.monitor.lock().observe_histogram(party, metric, value);
        }
    }

    fn add(&self, counter: &'static str, delta: u64) {
        if let Some(party) = self.party {
            self.monitor.lock().observe_counter(party, counter, delta);
        }
    }

    fn gauge(&self, gauge: &'static str, value: u64) {
        if let Some(party) = self.party {
            self.monitor.lock().observe_gauge(party, gauge, value);
        }
    }

    fn event(&self, at: Micros, party: PartyId, event: Event) {
        self.monitor
            .lock()
            .observe_event(&Stamped { at, party, event });
    }
}

/// Replays a recorded event stream through the detector catalogue offline.
///
/// Only the event-driven detectors (commit stall, round skew, pull-retry
/// storm, evidence spike) see input here: gauge/counter/histogram samples
/// are not part of the event log, so buffer-growth, mempool-collapse and
/// WAL-degradation verdicts are online-only. The bank is settled (windows
/// expired, tail clears emitted) before being returned.
pub fn replay_events(events: &[Stamped], parties: u32, cfg: MonitorConfig) -> DetectorBank {
    let mut bank = DetectorBank::new(cfg);
    for p in 0..parties {
        bank.register(PartyId(p));
    }
    for s in events {
        bank.observe_event(s);
    }
    bank.settle();
    bank
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_telemetry::Telemetry;
    use clanbft_types::Round;

    #[test]
    fn probe_attributes_metrics_and_routes_events() {
        let monitor = HealthMonitor::default();
        monitor.expect_parties(4);
        let probe = monitor.probe(PartyId(2));
        // A buffer gauge sample through party 2's probe fires for party 2.
        probe.gauge(clanbft_telemetry::counters::BUF_DAG_PENDING, 10_000);
        assert!(monitor.with_bank(|b| b.is_active(Detector::BufferGrowth, PartyId(2))));
        // An event through the probe keeps its own stamp party.
        probe.event(
            Micros::from_millis(100),
            PartyId(0),
            Event::EvidenceRecorded {
                kind: "double_vote",
                round: Round(1),
                culprit: PartyId(3),
            },
        );
        assert!(monitor.with_bank(|b| b.is_active(Detector::EvidenceSpike, PartyId(3))));
    }

    #[test]
    fn observer_drops_metrics_keeps_events() {
        let monitor = HealthMonitor::default();
        monitor.expect_parties(2);
        let obs = monitor.observer();
        obs.gauge(clanbft_telemetry::counters::BUF_DAG_PENDING, 10_000);
        assert!(monitor.alerts().is_empty());
        obs.event(
            Micros::from_millis(10),
            PartyId(1),
            Event::RoundEntered { round: Round(1) },
        );
        assert_eq!(monitor.with_bank(|b| b.max_round()), 1);
    }

    #[test]
    fn tee_with_fans_into_the_monitor() {
        let monitor = HealthMonitor::default();
        monitor.expect_parties(2);
        let (base, rec) = Telemetry::mem();
        let teed = base.tee_with(monitor.probe(PartyId(0)));
        teed.event(
            Micros::from_millis(5),
            PartyId(0),
            Event::RoundEntered { round: Round(2) },
        );
        // Both sinks saw the event.
        assert_eq!(rec.events().len(), 1);
        assert_eq!(monitor.with_bank(|b| b.max_round()), 2);
    }

    /// One input to the monitor: a stamped event, or a party-tagged metric
    /// sample.
    enum Sample {
        Ev(Stamped),
        Gauge(u32, &'static str, u64),
        Counter(u32, &'static str, u64),
        Hist(u32, &'static str, u64),
    }

    /// A four-party run that takes every detector through fire and clear:
    /// party 3 stops committing and entering rounds for a while (stall,
    /// skew), party 2 retries pulls in a burst, party 1 is caught
    /// equivocating and overfills a buffer, party 0 rejects admissions and
    /// fsyncs slowly; then everything recovers and the windows drain.
    fn seven_detector_run() -> Vec<Sample> {
        use clanbft_telemetry::counters;
        let ev = |at_ms: u64, party: u32, event: Event| {
            Sample::Ev(Stamped {
                at: Micros::from_millis(at_ms),
                party: PartyId(party),
                event,
            })
        };
        let mut run = Vec::new();
        for step in 0..24u64 {
            let t = step * 400;
            for p in 0..4u32 {
                // Party 3 goes dark from step 2 and is back at step 12.
                if p == 3 && (2..12).contains(&step) {
                    continue;
                }
                let at = t + u64::from(p);
                let round = Round(step + 1);
                run.push(ev(at, p, Event::RoundEntered { round }));
                run.push(ev(
                    at + 10,
                    p,
                    Event::VertexCommitted {
                        round,
                        source: PartyId(p),
                        leader: p == 0,
                        sequence: step,
                    },
                ));
            }
            match step {
                3 => {
                    for i in 0..7u64 {
                        run.push(ev(
                            t + 100 + i * 10,
                            2,
                            Event::Rbc {
                                phase: clanbft_telemetry::RbcPhase::PullRetry,
                                round: Round(3),
                                source: PartyId(1),
                            },
                        ));
                    }
                    run.push(Sample::Gauge(1, counters::BUF_DAG_PENDING, 5_000));
                    run.push(Sample::Counter(0, counters::MEMPOOL_REJECTED_FULL, 40));
                    run.push(Sample::Hist(0, counters::WAL_FSYNC_MICROS, 80_000));
                }
                4 => {
                    run.push(ev(
                        t + 50,
                        0,
                        Event::EvidenceRecorded {
                            kind: "equivocating_source",
                            round: Round(4),
                            culprit: PartyId(1),
                        },
                    ));
                    run.push(Sample::Gauge(1, counters::BUF_DAG_PENDING, 2_000));
                    run.push(Sample::Counter(0, counters::MEMPOOL_REJECTED_FULL, 30));
                    run.push(Sample::Counter(0, counters::MEMPOOL_ADMITTED, 500));
                    run.push(Sample::Hist(0, counters::WAL_FSYNC_MICROS, 90_000));
                    run.push(Sample::Hist(0, counters::WAL_FSYNC_MICROS, 70_000));
                    run.push(Sample::Hist(0, counters::WAL_FSYNC_MICROS, 200));
                }
                6 => {
                    run.push(Sample::Gauge(1, counters::BUF_RBC_INSTANCES, 64));
                    run.push(Sample::Gauge(1, counters::BUF_DAG_PENDING, 100));
                }
                20 => run.push(Sample::Hist(2, counters::CHECKPOINT_BYTES, 1 << 30)),
                _ => {}
            }
        }
        run
    }

    /// The alert stream [`seven_detector_run`] produces, captured from the
    /// detector bank as it stood before its four hand-written rolling
    /// windows became one `Window` type. Any drift in window expiry, fire or
    /// clear thresholds, alert order or evidence text shows up here.
    const SEVEN_DETECTOR_TRANSCRIPT: &str = concat!(
        r#"{"at":1350000,"alert":"fire","detector":"pull_retry_storm","severity":"warning","party":2,"round":4,"evidence":"6 pull retries in 1000000us window (latest for round 3 from party 1)"}"#,
        "\n",
        r#"{"at":1360000,"alert":"fire","detector":"buffer_growth","severity":"warning","party":1,"round":4,"evidence":"buf.dag.pending at 5000 >= 4096"}"#,
        "\n",
        r#"{"at":1600000,"alert":"fire","detector":"round_skew","severity":"warning","party":3,"round":2,"evidence":"at round 2 while cluster reached 5"}"#,
        "\n",
        r#"{"at":1650000,"alert":"fire","detector":"evidence_spike","severity":"critical","party":1,"round":5,"evidence":"1 evidence records in 2000000us window"}"#,
        "\n",
        r#"{"at":1650000,"alert":"fire","detector":"mempool_collapse","severity":"warning","party":0,"round":5,"evidence":"70 capacity rejections in 1000000us window"}"#,
        "\n",
        r#"{"at":1650000,"alert":"fire","detector":"wal_degradation","severity":"warning","party":0,"round":5,"evidence":"3 fsyncs slower than 50000us in window"}"#,
        "\n",
        r#"{"at":2010000,"alert":"fire","detector":"commit_stall","severity":"critical","party":3,"round":2,"evidence":"no commit for 1597000us behind cluster frontier (seq 5)"}"#,
        "\n",
        r#"{"at":2410000,"alert":"clear","detector":"pull_retry_storm","severity":"warning","party":2,"round":6,"evidence":"window drained to 0 retries"}"#,
        "\n",
        r#"{"at":2412000,"alert":"clear","detector":"buffer_growth","severity":"warning","party":1,"round":7,"evidence":"all buf.* gauges <= 512"}"#,
        "\n",
        r#"{"at":2800000,"alert":"clear","detector":"mempool_collapse","severity":"warning","party":0,"round":8,"evidence":"rejection window drained"}"#,
        "\n",
        r#"{"at":4010000,"alert":"clear","detector":"evidence_spike","severity":"critical","party":1,"round":10,"evidence":"evidence window drained"}"#,
        "\n",
        r#"{"at":4803000,"alert":"clear","detector":"round_skew","severity":"warning","party":3,"round":13,"evidence":"caught up to round 13"}"#,
        "\n",
        r#"{"at":4813000,"alert":"clear","detector":"commit_stall","severity":"critical","party":3,"round":13,"evidence":"committed seq 12"}"#,
        "\n",
        r#"{"at":6800000,"alert":"clear","detector":"wal_degradation","severity":"warning","party":0,"round":18,"evidence":"slow-fsync window drained"}"#,
        "\n",
        r#"{"at":8013000,"alert":"fire","detector":"wal_degradation","severity":"warning","party":2,"round":21,"evidence":"checkpoint of 1073741824 bytes >= 67108864"}"#,
        "\n",
        r#"{"at":8400000,"alert":"clear","detector":"wal_degradation","severity":"warning","party":2,"round":21,"evidence":"slow-fsync window drained"}"#,
        "\n",
    );

    #[test]
    fn replay_matches_online_for_event_detectors() {
        let run = seven_detector_run();

        // Online: every party's samples and events through its own probe,
        // as `build_tribe` wires them.
        let online = HealthMonitor::default();
        online.expect_parties(4);
        let probes: Vec<Arc<dyn Recorder>> = (0..4).map(|p| online.probe(PartyId(p))).collect();
        // Direct: the same samples straight into a bank.
        let mut direct = DetectorBank::new(MonitorConfig::default());
        for p in 0..4 {
            direct.register(PartyId(p));
        }
        for sample in &run {
            match sample {
                Sample::Ev(s) => {
                    probes[s.party.0 as usize].event(s.at, s.party, s.event.clone());
                    direct.observe_event(s);
                }
                Sample::Gauge(p, name, v) => {
                    probes[*p as usize].gauge(name, *v);
                    direct.observe_gauge(PartyId(*p), name, *v);
                }
                Sample::Counter(p, name, v) => {
                    probes[*p as usize].add(name, *v);
                    direct.observe_counter(PartyId(*p), name, *v);
                }
                Sample::Hist(p, name, v) => {
                    probes[*p as usize].record(name, *v);
                    direct.observe_histogram(PartyId(*p), name, *v);
                }
            }
        }
        online.settle();
        direct.settle();
        let ndjson =
            |alerts: &[Alert]| -> String { alerts.iter().map(|a| a.to_ndjson() + "\n").collect() };
        let transcript = online.alerts_ndjson();
        assert_eq!(transcript, ndjson(direct.alerts()));
        assert_eq!(transcript, SEVEN_DETECTOR_TRANSCRIPT);
        for d in Detector::ALL {
            for kind in ["fire", "clear"] {
                let needle = format!("\"alert\":\"{kind}\",\"detector\":\"{}\"", d.label());
                assert!(transcript.contains(&needle), "no {kind} of {}", d.label());
            }
        }

        // Offline replay sees the events only, through the simulator-style
        // observer: the event-driven detectors must agree with a monitor
        // fed the same events online.
        let events: Vec<Stamped> = run
            .iter()
            .filter_map(|s| match s {
                Sample::Ev(s) => Some(s.clone()),
                _ => None,
            })
            .collect();
        let replayed = replay_events(&events, 4, MonitorConfig::default());
        let observed = HealthMonitor::default();
        observed.expect_parties(4);
        let obs = observed.observer();
        for s in &events {
            obs.event(s.at, s.party, s.event.clone());
        }
        observed.settle();
        assert_eq!(observed.alerts_ndjson(), ndjson(replayed.alerts()));
        assert!(replayed
            .alerts()
            .iter()
            .any(|a| a.detector == Detector::CommitStall));
    }

    #[test]
    fn prometheus_export_covers_verdict_and_actives() {
        let monitor = HealthMonitor::default();
        monitor.expect_parties(2);
        monitor
            .probe(PartyId(1))
            .gauge(clanbft_telemetry::counters::BUF_RBC_INSTANCES, 1 << 20);
        let text = monitor.prometheus();
        assert!(text.contains("clanbft_health_verdict 1\n"), "{text}");
        assert!(
            text.contains("clanbft_alert_active{detector=\"buffer_growth\",party=\"1\"} 1\n"),
            "{text}"
        );
    }
}
