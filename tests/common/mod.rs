//! What the integration tests that judge a run's trace share: run a tribe
//! with an in-memory recorder attached and put the merged trace through
//! every `clanbft-inspect check` invariant in process.

use clanbft_inspect::{check_report, parse_trace, Trace};
use clanbft_sim::{build_tribe, export_trace, meta_line, BuiltTribe, TribeSpec};
use clanbft_telemetry::{Event, MemRecorder, Telemetry};
use clanbft_types::Micros;
use std::sync::Arc;

/// A finished run and its judged trace.
#[allow(dead_code)] // each test file reads the fields it needs
pub struct Judged {
    pub built: BuiltTribe,
    pub recorder: Arc<MemRecorder>,
    /// The merged NDJSON trace (meta line + event stream), as
    /// `clanbft-inspect` reads it from a file.
    pub text: String,
    pub trace: Trace,
}

/// Runs `spec` until `until` with a recorder attached (a monitor on the
/// spec rides along), then judges the merged trace: every line decodes,
/// every `check` invariant holds (evidence tied to a configured attacker,
/// recovery continuity and no equivocation after a restart among them),
/// and each scheduled restart completed exactly one recovery.
pub fn run_judged(mut spec: TribeSpec, until: Micros) -> Judged {
    let (telemetry, recorder) = Telemetry::mem();
    spec.telemetry = telemetry;
    let mut built = build_tribe(&spec);
    built.sim.run_until(until);
    let text = export_trace(&spec, &recorder);
    let trace = parse_trace(&text).expect("trace parses");
    let run = meta_line(&spec);
    assert_eq!(trace.skipped, 0, "{run}: unknown event labels");
    let (report, ok) = check_report(&trace);
    assert!(ok, "{run}: trace failed the invariant gate:\n{report}");
    let recoveries = trace
        .events
        .iter()
        .filter(|s| matches!(s.event, Event::RecoveryCompleted { .. }))
        .count();
    assert_eq!(recoveries, spec.restarts.len(), "{run}: one per restart");
    Judged {
        built,
        recorder,
        text,
        trace,
    }
}
