//! Observability substrate for the clanbft workspace (zero external deps).
//!
//! The paper's claims are about *where* time and bytes go — vertex-RBC vs.
//! block-RBC phases, leader vs. non-leader commit paths (3δ vs. 5δ),
//! clan-local vs. tribe-wide traffic — but end-to-end throughput/latency
//! totals cannot check any of them. This crate provides the measuring
//! stick: one stamped event stream, one codec for it, one recorder that
//! holds it, and one fold that turns it into per-block lifecycles.
//!
//! * [`event`] — the typed protocol event log and *the* trace wire format:
//!   one table declares every event, its label and its fields, and drives
//!   both the NDJSON encoder and the decoder. Every event is stamped with
//!   sim-time [`Micros`] and the observing [`PartyId`]; [`RunMeta`] is the
//!   trace's leading metadata line.
//! * [`ndjson`] — the hand-rolled flat-JSON line writer and reader the
//!   codec sits on (matching the `codec.rs` philosophy: deterministic,
//!   dependency-free), one event per line.
//! * [`recorder`] — the [`Recorder`] trait and [`MemRecorder`] (named
//!   counters, gauges, log-bucketed histograms, the bounded event ring and
//!   gauge-sample log, and the black-box snapshot dumped on panic or
//!   `CLANBFT_DUMP`). The cloneable [`Telemetry`] handle — a list of
//!   recorders, empty by default: one branch per call site when disabled —
//!   is what gets threaded through consensus, the RBC engines and the
//!   simulator.
//! * [`counters`] — canonical names for the rejection/hardening counters
//!   (`rejected.*`, `pull.retries`) shared by rbc, consensus and tests.
//! * [`hist`] — power-of-two log-bucketed [`Histogram`] with p50/p90/p99
//!   and max readout.
//! * [`span`] — the one fold from events to lifecycles: a block's journey
//!   (`Proposed → Echoed → Certified → Ordered → Committed`) reconstructed
//!   across all parties from a merged trace ([`SpanSet`]), and its
//!   commit-latency stage breakdown readout (propose → RBC-certify →
//!   commit, split by leader/non-leader path).
//!
//! [`Micros`]: clanbft_types::Micros
//! [`PartyId`]: clanbft_types::PartyId

pub mod counters;
pub mod event;
pub mod hist;
pub mod ndjson;
pub mod recorder;
pub mod span;

pub use event::{Event, RbcPhase, RunMeta, Stamped};
pub use hist::Histogram;
pub use ndjson::JsonObj;
pub use recorder::{install_panic_dump, mempool_summary, MemRecorder, Recorder, Telemetry};
pub use span::{Span, SpanSet, Stage, StageBreakdown, StageStats};
