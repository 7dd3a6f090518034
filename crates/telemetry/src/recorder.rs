//! The recorder abstraction, its in-memory implementation and the handle
//! that fans calls out to recorders.
//!
//! A [`Telemetry`] handle is cloned into every node, RBC engine and the
//! simulator. The default is the disabled handle: every call site pays one
//! predictable branch and nothing else, so instrumentation can stay
//! permanently wired through the hot paths (`benches/micro.rs` pins the
//! overhead). [`MemRecorder`] collects everything in memory behind a mutex
//! — the simulator is single-threaded, so the lock is never contended and
//! the event order is the deterministic handler execution order.
//!
//! The same recorder is the run's black box. Its event log is a bounded
//! ring and it keeps a bounded log of recent gauge samples (the bounded
//! buffers: round-window occupancy, echo-digest counts, pending pulls,
//! evidence backlog), so [`MemRecorder::snapshot_ndjson`] can render *the
//! last moments before the crash* in one call. Safety violations in this
//! workspace are `assert!`s, i.e. panics: [`install_panic_dump`] hooks the
//! panic handler to write the snapshot to `CLANBFT_DUMP` (or
//! `clanbft-flight.ndjson`) before unwinding, and
//! [`MemRecorder::dump_if_requested`] writes the same snapshot at the end
//! of a healthy run when `CLANBFT_DUMP` is set.

use crate::counters;
use crate::event::{Event, Stamped};
use crate::hist::Histogram;
use crate::ndjson::JsonObj;
use clanbft_types::{Micros, PartyId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Default bound on [`MemRecorder`]'s event log. Generous enough for every
/// experiment in the repo (the fig5 full-scale sweep stays well under it),
/// small enough that a runaway sim cannot grow memory without bound.
pub const DEFAULT_EVENT_CAP: usize = 1_000_000;

/// Bound on [`MemRecorder`]'s log of recent gauge samples.
pub const GAUGE_LOG_CAP: usize = 1_024;

/// Environment variable naming the black-box dump file.
pub const DUMP_ENV: &str = "CLANBFT_DUMP";

/// Fallback dump path when [`DUMP_ENV`] is unset at panic time.
pub const DEFAULT_DUMP_PATH: &str = "clanbft-flight.ndjson";

/// Sink for metrics and protocol events.
pub trait Recorder: Send + Sync {
    /// Records `value` into the named histogram.
    fn record(&self, metric: &'static str, value: u64);

    /// Adds `delta` to the named counter.
    fn add(&self, counter: &'static str, delta: u64);

    /// Sets the named gauge to `value`.
    fn gauge(&self, gauge: &'static str, value: u64);

    /// Appends a stamped protocol event.
    fn event(&self, at: Micros, party: PartyId, event: Event);
}

#[derive(Default)]
struct MemInner {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
    events: VecDeque<Stamped>,
    /// The newest [`GAUGE_LOG_CAP`] gauge samples.
    gauge_log: VecDeque<(Micros, &'static str, u64)>,
    /// Stamp of the newest event, used to stamp gauge samples (the
    /// `Recorder::gauge` call itself carries no clock).
    last_at: Micros,
}

/// In-memory recorder: counters, gauges, histograms and the event log.
///
/// The event log is a ring: once `event_cap` events are held, each new
/// event evicts the oldest one and ticks [`counters::EVENTS_DROPPED`], so
/// the retained log is always the newest suffix of the run.
pub struct MemRecorder {
    inner: Mutex<MemInner>,
    event_cap: usize,
}

impl Default for MemRecorder {
    fn default() -> MemRecorder {
        MemRecorder::with_capacity(DEFAULT_EVENT_CAP)
    }
}

impl MemRecorder {
    /// A fresh, empty recorder with the default event cap
    /// ([`DEFAULT_EVENT_CAP`]).
    pub fn new() -> MemRecorder {
        MemRecorder::default()
    }

    /// A fresh recorder bounding the event log at `event_cap` events
    /// (clamped to at least 1).
    pub fn with_capacity(event_cap: usize) -> MemRecorder {
        MemRecorder {
            inner: Mutex::default(),
            event_cap: event_cap.max(1),
        }
    }

    fn inner(&self) -> MutexGuard<'_, MemInner> {
        self.inner.lock().expect("telemetry lock")
    }

    /// Events evicted from the ring so far (same value as the
    /// [`counters::EVENTS_DROPPED`] counter).
    pub fn dropped_events(&self) -> u64 {
        self.counter(counters::EVENTS_DROPPED)
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner().counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.inner().gauges.get(name).copied()
    }

    /// Snapshot of a named histogram, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner().histograms.get(name).cloned()
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner()
            .counters
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// A clone of the retained event log, in emission order.
    pub fn events(&self) -> Vec<Stamped> {
        self.inner().events.iter().cloned().collect()
    }

    /// Number of events currently retained.
    pub fn event_count(&self) -> usize {
        self.inner().events.len()
    }

    /// The whole event log as NDJSON (one event per line, trailing
    /// newline).
    pub fn to_ndjson(&self) -> String {
        let line = |ev: &Stamped| ev.to_ndjson() + "\n";
        self.inner().events.iter().map(line).collect()
    }

    /// Renders the whole black box as NDJSON: a header line, one line per
    /// counter, per latest gauge value and per retained gauge sample, then
    /// the retained events oldest-first (each in the standard trace
    /// format).
    pub fn snapshot_ndjson(&self) -> String {
        let inner = self.inner();
        let dropped = inner.counters.get(counters::EVENTS_DROPPED);
        let mut out = JsonObj::new()
            .str("flight", "header")
            .u64("events_retained", inner.events.len() as u64)
            .u64("events_dropped", dropped.copied().unwrap_or(0))
            .u64("last_at", inner.last_at.0)
            .finish();
        out.push('\n');
        let framing = |kind: &str, at: Option<Micros>, name: &str, value: u64| {
            let mut obj = JsonObj::new().str("flight", kind);
            if let Some(at) = at {
                obj = obj.u64("at", at.0);
            }
            obj.str("name", name).u64("value", value).finish() + "\n"
        };
        for (name, value) in &inner.counters {
            out.push_str(&framing("counter", None, name, *value));
        }
        for (name, value) in &inner.gauges {
            out.push_str(&framing("gauge", None, name, *value));
        }
        for (at, name, value) in &inner.gauge_log {
            out.push_str(&framing("gauge_sample", Some(*at), name, *value));
        }
        out.extend(inner.events.iter().map(|ev| ev.to_ndjson() + "\n"));
        out
    }

    /// Writes the snapshot to `path`. Errors are returned, not panicked on
    /// — this runs inside panic handlers.
    pub fn dump_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.snapshot_ndjson())
    }

    /// Writes the snapshot to `$CLANBFT_DUMP` if the variable is set.
    /// Returns the path written, if any.
    pub fn dump_if_requested(&self) -> Option<String> {
        let path = std::env::var(DUMP_ENV).ok().filter(|p| !p.is_empty())?;
        match self.dump_to(&path) {
            Ok(()) => Some(path),
            Err(e) => {
                eprintln!("flight recorder: failed to write {path}: {e}");
                None
            }
        }
    }
}

/// Chains a panic hook that dumps `recorder`'s snapshot to `$CLANBFT_DUMP`
/// (or [`DEFAULT_DUMP_PATH`]) before the previous hook runs, so any
/// safety-check failure (they are asserts) leaves a black box behind.
pub fn install_panic_dump(recorder: Arc<MemRecorder>) {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let path = std::env::var(DUMP_ENV).unwrap_or_else(|_| DEFAULT_DUMP_PATH.to_string());
        if !path.is_empty() {
            match recorder.dump_to(&path) {
                Ok(()) => eprintln!("flight recorder: black box written to {path}"),
                Err(e) => eprintln!("flight recorder: failed to write {path}: {e}"),
            }
        }
        previous(info);
    }));
}

impl Recorder for MemRecorder {
    fn record(&self, metric: &'static str, value: u64) {
        self.inner()
            .histograms
            .entry(metric)
            .or_default()
            .record(value);
    }

    fn add(&self, counter: &'static str, delta: u64) {
        *self.inner().counters.entry(counter).or_insert(0) += delta;
    }

    fn gauge(&self, gauge: &'static str, value: u64) {
        let mut inner = self.inner();
        inner.gauges.insert(gauge, value);
        if inner.gauge_log.len() >= GAUGE_LOG_CAP {
            inner.gauge_log.pop_front();
        }
        let at = inner.last_at;
        inner.gauge_log.push_back((at, gauge, value));
    }

    fn event(&self, at: Micros, party: PartyId, event: Event) {
        let mut inner = self.inner();
        inner.last_at = at;
        if inner.events.len() >= self.event_cap {
            inner.events.pop_front();
            *inner.counters.entry(counters::EVENTS_DROPPED).or_insert(0) += 1;
        }
        inner.events.push_back(Stamped { at, party, event });
    }
}

/// The cloneable handle threaded through the stack: a list of recorders,
/// each of which receives every call, in order.
///
/// The default everywhere is the disabled handle — the empty list — which
/// costs exactly one branch per instrumentation point and never touches a
/// recorder.
#[derive(Clone)]
pub struct Telemetry {
    sinks: Arc<[Arc<dyn Recorder>]>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::null()
    }
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Telemetry(enabled={})", self.enabled())
    }
}

impl Telemetry {
    /// The disabled handle (default): all calls are one-branch no-ops.
    pub fn null() -> Telemetry {
        Telemetry {
            sinks: Arc::new([]),
        }
    }

    /// An enabled handle backed by a fresh [`MemRecorder`]; the recorder is
    /// returned alongside for readout after the run.
    pub fn mem() -> (Telemetry, Arc<MemRecorder>) {
        Telemetry::mem_with_capacity(DEFAULT_EVENT_CAP)
    }

    /// Like [`Telemetry::mem`] with an explicit event-log bound.
    pub fn mem_with_capacity(event_cap: usize) -> (Telemetry, Arc<MemRecorder>) {
        let rec = Arc::new(MemRecorder::with_capacity(event_cap));
        (Telemetry::with_recorder(Arc::clone(&rec) as _), rec)
    }

    /// An enabled handle over an arbitrary recorder implementation.
    pub fn with_recorder(rec: Arc<dyn Recorder>) -> Telemetry {
        Telemetry {
            sinks: Arc::new([rec]),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        !self.sinks.is_empty()
    }

    /// An enabled handle that fans every call into this handle's recorders
    /// *and then* `other` (e.g. a [`MemRecorder`] for readout plus a
    /// health-monitor probe watching the same run live). If this handle is
    /// disabled, `other` simply becomes the recorder.
    pub fn tee_with(&self, other: Arc<dyn Recorder>) -> Telemetry {
        Telemetry {
            sinks: self.sinks.iter().cloned().chain([other]).collect(),
        }
    }

    /// Records `value` into the named histogram.
    #[inline]
    pub fn record(&self, metric: &'static str, value: u64) {
        for sink in self.sinks.iter() {
            sink.record(metric, value);
        }
    }

    /// Adds `delta` to the named counter.
    #[inline]
    pub fn add(&self, counter: &'static str, delta: u64) {
        for sink in self.sinks.iter() {
            sink.add(counter, delta);
        }
    }

    /// Sets the named gauge.
    #[inline]
    pub fn gauge(&self, gauge: &'static str, value: u64) {
        for sink in self.sinks.iter() {
            sink.gauge(gauge, value);
        }
    }

    /// Appends a stamped protocol event.
    #[inline]
    pub fn event(&self, at: Micros, party: PartyId, event: Event) {
        if let Some((last, rest)) = self.sinks.split_last() {
            for sink in rest {
                sink.event(at, party, event.clone());
            }
            last.event(at, party, event);
        }
    }
}

/// One NDJSON line summarising the client-ingress telemetry a recorder
/// collected: the admission/rejection counters and the queue-delay,
/// batch-size and batch-occupancy histogram readouts (p50/p99/max each).
/// Zero everywhere when the run had no ingress.
pub fn mempool_summary(rec: &MemRecorder) -> String {
    let hist = |name: &str| -> (u64, u64, u64) {
        rec.histogram(name)
            .map(|h| {
                let (p50, _p90, p99, max) = h.readout();
                (p50, p99, max)
            })
            .unwrap_or((0, 0, 0))
    };
    let (qd50, qd99, qdmax) = hist(counters::MEMPOOL_QUEUE_DELAY);
    let (bs50, bs99, bsmax) = hist(counters::MEMPOOL_BATCH_SIZE);
    let (oc50, _, _) = hist(counters::MEMPOOL_BATCH_OCCUPANCY);
    JsonObj::new()
        .str("report", "mempool")
        .u64("admitted", rec.counter(counters::MEMPOOL_ADMITTED))
        .u64("pulled", rec.counter(counters::MEMPOOL_PULLED))
        .u64(
            "rejected_full",
            rec.counter(counters::MEMPOOL_REJECTED_FULL),
        )
        .u64(
            "rejected_duplicate",
            rec.counter(counters::MEMPOOL_REJECTED_DUPLICATE),
        )
        .u64("rejected_gap", rec.counter(counters::MEMPOOL_REJECTED_GAP))
        .u64(
            "rejected_client_cap",
            rec.counter(counters::MEMPOOL_REJECTED_CLIENT_CAP),
        )
        .u64("queue_delay_p50_us", qd50)
        .u64("queue_delay_p99_us", qd99)
        .u64("queue_delay_max_us", qdmax)
        .u64("batch_size_p50", bs50)
        .u64("batch_size_p99", bs99)
        .u64("batch_size_max", bsmax)
        .u64("batch_occupancy_p50_pct", oc50)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_types::Round;

    #[test]
    fn null_handle_is_disabled() {
        let t = Telemetry::null();
        assert!(!t.enabled());
        // All calls are no-ops (this is the hot-path branch).
        t.record("m", 1);
        t.add("c", 1);
        t.event(
            Micros(1),
            PartyId(0),
            Event::RoundEntered { round: Round(1) },
        );
    }

    #[test]
    fn mem_recorder_collects() {
        let (t, rec) = Telemetry::mem();
        assert!(t.enabled());
        t.add("net.sent_msgs", 2);
        t.add("net.sent_msgs", 3);
        t.gauge("dag.rounds", 7);
        t.record("lat", 100);
        t.record("lat", 300);
        t.event(
            Micros(5),
            PartyId(1),
            Event::RoundEntered { round: Round(2) },
        );
        assert_eq!(rec.counter("net.sent_msgs"), 5);
        assert_eq!(rec.gauge_value("dag.rounds"), Some(7));
        let h = rec.histogram("lat").expect("histogram exists");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), 300);
        assert_eq!(rec.event_count(), 1);
        let nd = rec.to_ndjson();
        assert_eq!(
            nd,
            "{\"at\":5,\"party\":1,\"ev\":\"round_entered\",\"round\":2}\n"
        );
    }

    #[test]
    fn clones_share_the_recorder() {
        let (t, rec) = Telemetry::mem();
        let t2 = t.clone();
        t.add("c", 1);
        t2.add("c", 1);
        assert_eq!(rec.counter("c"), 2);
    }

    #[test]
    fn event_log_is_a_bounded_ring() {
        let (t, rec) = Telemetry::mem_with_capacity(3);
        for i in 0..5u64 {
            t.event(
                Micros(i),
                PartyId(0),
                Event::RoundEntered {
                    round: Round(i + 1),
                },
            );
        }
        // The newest 3 events are retained; the 2 oldest were evicted and
        // counted.
        assert_eq!(rec.event_count(), 3);
        assert_eq!(rec.dropped_events(), 2);
        assert_eq!(rec.counter(counters::EVENTS_DROPPED), 2);
        let rounds: Vec<u64> = rec
            .events()
            .iter()
            .map(|s| match s.event {
                Event::RoundEntered { round } => round.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(rounds, vec![3, 4, 5]);
    }

    #[test]
    fn mempool_summary_reads_counters_and_histograms() {
        let (t, rec) = Telemetry::mem();
        let line = mempool_summary(&rec);
        assert!(line.contains("\"admitted\":0"), "empty recorder: {line}");
        t.add(counters::MEMPOOL_ADMITTED, 12);
        t.add(counters::MEMPOOL_REJECTED_FULL, 3);
        t.record(counters::MEMPOOL_QUEUE_DELAY, 800);
        t.record(counters::MEMPOOL_BATCH_SIZE, 64);
        let line = mempool_summary(&rec);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"report\":\"mempool\""));
        assert!(line.contains("\"admitted\":12"));
        assert!(line.contains("\"rejected_full\":3"));
        assert!(line.contains("\"queue_delay_p50_us\":"));
        assert!(line.contains("\"batch_size_p50\":"));
    }

    #[test]
    fn tee_duplicates_into_both_recorders() {
        let (base, a) = Telemetry::mem();
        let b = Arc::new(MemRecorder::new());
        let t = base.tee_with(Arc::clone(&b) as Arc<dyn Recorder>);
        // A disabled handle tees into just the new recorder.
        let c = Arc::new(MemRecorder::new());
        let lone = Telemetry::null().tee_with(Arc::clone(&c) as Arc<dyn Recorder>);
        assert!(lone.enabled());
        lone.add("c", 1);
        assert_eq!(c.counter("c"), 1);
        t.add("c", 4);
        t.gauge("g", 9);
        t.event(
            Micros(1),
            PartyId(2),
            Event::RoundEntered { round: Round(3) },
        );
        for rec in [&a, &b] {
            assert_eq!(rec.counter("c"), 4);
            assert_eq!(rec.gauge_value("g"), Some(9));
            assert_eq!(rec.event_count(), 1);
        }
    }

    fn round_entered(t: &Telemetry, at: u64, party: u32, round: u64) {
        t.event(
            Micros(at),
            PartyId(party),
            Event::RoundEntered {
                round: Round(round),
            },
        );
    }

    #[test]
    fn snapshot_renders_the_newest_suffix() {
        let (t, rec) = Telemetry::mem_with_capacity(2);
        for i in 0..5u64 {
            round_entered(&t, i, 0, i + 1);
        }
        let snap = rec.snapshot_ndjson();
        assert!(snap.starts_with(
            "{\"flight\":\"header\",\"events_retained\":2,\"events_dropped\":3,\"last_at\":4}\n"
        ));
        // Oldest retained is round 4; rounds 1-3 were evicted.
        assert!(snap.contains(r#""round":4"#));
        assert!(!snap.contains(r#""round":3"#));
    }

    #[test]
    fn gauges_are_sampled_with_the_event_clock() {
        let (t, rec) = Telemetry::mem();
        round_entered(&t, 100, 1, 1);
        t.gauge("buf.rbc.instances", 3);
        round_entered(&t, 200, 1, 2);
        for _ in 0..GAUGE_LOG_CAP - 1 {
            t.gauge("buf.rbc.instances", 5);
        }
        t.gauge("buf.dag.pending", 1);
        t.add("pull.retries", 2);
        let snap = rec.snapshot_ndjson();
        // Latest gauge values.
        assert!(snap.contains(r#""flight":"gauge","name":"buf.rbc.instances","value":5"#));
        // The sample log is bounded: the first sample was evicted.
        assert!(!snap
            .contains(r#""flight":"gauge_sample","at":100,"name":"buf.rbc.instances","value":3"#));
        assert!(snap
            .contains(r#""flight":"gauge_sample","at":200,"name":"buf.rbc.instances","value":5"#));
        assert!(
            snap.contains(r#""flight":"gauge_sample","at":200,"name":"buf.dag.pending","value":1"#)
        );
        assert!(snap.contains(r#""flight":"counter","name":"pull.retries","value":2"#));
    }

    #[test]
    fn dump_to_writes_the_snapshot() {
        let (t, rec) = Telemetry::mem();
        round_entered(&t, 7, 2, 9);
        let path = std::env::temp_dir().join("clanbft-flight-test.ndjson");
        let path = path.to_str().expect("utf8 temp path");
        rec.dump_to(path).expect("dump writes");
        let written = std::fs::read_to_string(path).expect("dump readable");
        assert_eq!(written, rec.snapshot_ndjson());
        let _ = std::fs::remove_file(path);
    }
}
