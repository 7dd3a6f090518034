//! Post-mortem analysis for clanbft NDJSON traces (zero external deps).
//!
//! The telemetry layer records *what happened*; this crate answers *why*.
//! It consumes the merged multi-party trace a simulation exports (see
//! `clanbft_sim::trace`) and turns it into verdicts:
//!
//! * [`parse`] — reads a trace file into a [`Trace`] ([`parse_trace`]):
//!   the lines are decoded by `clanbft_telemetry`'s codec (tolerant of
//!   unknown event labels, loud on corruption) and folded into spans once;
//!   every report below reads that one fold.
//! * [`waterfall`] — per-block commit-latency waterfalls: which stage,
//!   which party, how many δ ([`waterfall()`]).
//! * [`health`] — per-round DAG health: missing strong edges, certificate
//!   wait times, the slowest quorum member ([`health_report`]).
//! * [`incident`] — evidence grouped into incidents and correlated with
//!   the configured attack ([`incident_report`]).
//! * [`dot`] — DOT / ASCII rendering of a round range of the DAG
//!   ([`dot()`], [`ascii()`]).
//! * [`diff`] — two-run comparison with per-stage regression ratios and a
//!   verdict naming the dominant one ([`diff()`]).
//! * [`perf`] — performance-profile views over `clanbft_profiler` NDJSON:
//!   hot-scope table, scope tree, allocation table, and a two-profile diff
//!   with % deltas and a regression verdict ([`profile_report`],
//!   [`profile_diff`]).
//! * [`check`] — the CI gate: sequence contiguity, agreement, stage
//!   ordering, span completeness, evidence attribution ([`check()`]).
//! * [`alerts`] — offline replay of the online detector catalogue
//!   (`clanbft_monitor`): the same fire/clear transcript and cluster
//!   verdict the live monitor would have produced ([`alert_report`]).
//!
//! The same library API backs the `clanbft-inspect` binary and the
//! `trace_summary` example, so the invariant logic exists exactly once.

pub mod alerts;
pub mod check;
pub mod diff;
pub mod dot;
pub mod health;
pub mod incident;
pub mod parse;
pub mod perf;
pub mod waterfall;

pub use alerts::alert_report;
pub use check::{check, check_report, COMPLETENESS_MARGIN};
pub use diff::{diff, profile, RunProfile};
pub use dot::{ascii, dot, parse_round_range};
pub use health::{health_report, round_health, RoundHealth};
pub use incident::{incident_report, incidents, Incident};
pub use parse::{parse_trace, Trace};
pub use perf::{
    parse_profile, parse_profiles, profile_diff, profile_report, PerfProfile, PerfScope,
};
pub use waterfall::{estimate_delta, waterfall};
