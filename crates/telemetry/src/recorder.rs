//! The recorder abstraction, its in-memory implementation and the handle
//! that fans calls out to recorders.
//!
//! A [`Telemetry`] handle is cloned into every node, RBC engine and the
//! simulator. The default is the disabled handle: every call site pays one
//! predictable branch and nothing else, so instrumentation can stay
//! permanently wired through the hot paths (the benchmark's
//! `telemetry.overhead_pct` measures what an enabled one costs).
//! [`MemRecorder`] collects counters, histograms and the event log in
//! memory behind a mutex — the simulator is single-threaded, so the lock is
//! never contended and the event order is the deterministic handler
//! execution order. Gauges are live-only: the health monitor reads them as
//! they are set, and the memory recorder keeps none. A run's one export is
//! its event log, rendered as the merged trace
//! (`clanbft_sim::export_trace`); the simulator is deterministic, so any
//! trace can be regenerated from its seed.

use crate::counters;
use crate::event::{Event, Stamped};
use crate::hist::Histogram;
use clanbft_types::{Micros, PartyId};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// Default bound on [`MemRecorder`]'s event log. Generous enough for every
/// experiment in the repo (the fig5 full-scale sweep stays well under it),
/// small enough that a runaway sim cannot grow memory without bound.
pub const DEFAULT_EVENT_CAP: usize = 1_000_000;

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
    histograms: BTreeMap<&'static str, Histogram>,
    events: VecDeque<Stamped>,
}

/// In-memory recorder: counters, histograms and the event log.
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

    fn gauge(&self, _gauge: &'static str, _value: u64) {}

    fn event(&self, at: Micros, party: PartyId, event: Event) {
        let mut inner = self.inner();
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
            assert_eq!(rec.event_count(), 1);
        }
    }
}
