//! `monitor` and `inspect`: what the offline instruments cost on the
//! traced pass's own exported trace.

use super::Out;
use clanbft_inspect::{check, parse};
use clanbft_monitor::{replay_events, MonitorConfig};
use clanbft_telemetry::Stamped;
use std::time::Instant;

/// Times the detector bank over `events` and the inspect toolchain over
/// the exported `trace` text. Returns the violations `inspect check`
/// found, which the audit treats like its own.
pub fn run(events: &[Stamped], parties: u32, trace: &str, out: &mut Out) -> Vec<String> {
    let t = Instant::now();
    let bank = replay_events(events, parties, MonitorConfig::default());
    out.insert(
        "monitor.ingest_ns_per_event",
        t.elapsed().as_nanos() as f64 / events.len().max(1) as f64,
    );
    drop(bank);

    let t = Instant::now();
    let parsed = parse::parse_trace(trace);
    let secs = t.elapsed().as_secs_f64();
    out.insert(
        "inspect.parse_mib_s",
        trace.len() as f64 / (1 << 20) as f64 / secs,
    );
    let parsed = match parsed {
        Ok(p) => p,
        Err(e) => {
            out.insert("inspect.check_ms", f64::NAN);
            return vec![format!("inspect: exported trace does not parse: {e}")];
        }
    };
    let t = Instant::now();
    let violations = check::check(&parsed);
    out.insert("inspect.check_ms", t.elapsed().as_secs_f64() * 1e3);
    violations
        .into_iter()
        .map(|v| format!("inspect check: {v}"))
        .collect()
}
