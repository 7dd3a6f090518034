//! Merged multi-party trace export.
//!
//! A simulated tribe already shares one [`MemRecorder`] across every node
//! and the network, and the simulator's discrete-event clock is the global
//! time base, so the recorder's event log *is* the merged multi-party
//! trace. This module prepends the run metadata line the `clanbft-inspect`
//! toolchain needs to judge the events — tribe size (for quorums and the
//! `Echoed(k/n)` stage), seed, and the attack labels active in the run —
//! and writes the whole thing to a file.
//!
//! The meta line is itself NDJSON: `{"meta":"run","n":8,"seed":42,...}`.
//! Parsers that don't care (or older ones) can skip any line carrying a
//! `meta` key.

use crate::tribe::TribeSpec;
use clanbft_telemetry::{MemRecorder, RunMeta};

/// Renders the run-metadata line for `spec` (no trailing newline).
pub fn meta_line(spec: &TribeSpec) -> String {
    RunMeta {
        n: Some(spec.n as u64),
        seed: Some(spec.seed),
        clans: spec.clans.as_ref().map_or(0, Vec::len) as u64,
        max_round: spec.max_round,
        attacks: spec
            .byzantine
            .iter()
            .map(|(p, a)| (p.0, a.name().to_string()))
            .collect(),
    }
    .to_ndjson()
}

/// The full merged trace: meta line first, then every recorded event in
/// deterministic emission order, one NDJSON line each.
pub fn export_trace(spec: &TribeSpec, recorder: &MemRecorder) -> String {
    let mut out = meta_line(spec);
    out.push('\n');
    out.push_str(&recorder.to_ndjson());
    out
}

/// Writes the merged trace to `path`.
pub fn write_trace(spec: &TribeSpec, recorder: &MemRecorder, path: &str) -> std::io::Result<()> {
    std::fs::write(path, export_trace(spec, recorder))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_adversary::Attack;
    use clanbft_types::PartyId;

    #[test]
    fn meta_line_carries_run_identity() {
        let mut spec = TribeSpec::new(7);
        spec.seed = 42;
        spec.clans = Some(vec![vec![PartyId(0), PartyId(1), PartyId(2)]]);
        spec.byzantine = vec![(
            PartyId(3),
            Attack::Withhold {
                victims: vec![PartyId(0)],
            },
        )];
        let line = meta_line(&spec);
        assert!(line.starts_with(r#"{"meta":"run","n":7,"seed":42,"clans":1"#));
        assert!(line.contains(r#""attacks":"3:withhold""#));
    }

    #[test]
    fn export_prepends_meta_to_the_event_stream() {
        let (tel, rec) = clanbft_telemetry::Telemetry::mem();
        tel.event(
            clanbft_types::Micros(3),
            PartyId(1),
            clanbft_telemetry::Event::RoundEntered {
                round: clanbft_types::Round(1),
            },
        );
        let spec = TribeSpec::new(4);
        let trace = export_trace(&spec, &rec);
        let mut lines = trace.lines();
        assert!(lines.next().expect("meta line").contains(r#""meta":"run""#));
        assert!(lines.next().expect("event line").contains("round_entered"));
        assert_eq!(lines.next(), None);
    }
}
