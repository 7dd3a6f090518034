//! Commit-latency waterfalls: per-block stage attribution in δ units.
//!
//! For every span in the trace this renders when each lifecycle stage was
//! reached, which party gated it, and how the propose→commit interval
//! splits across stages — the per-block version of the paper's 3δ/5δ
//! arithmetic. δ itself is estimated from the trace as the median
//! propose→first-remote-echo interval (one message delay on the fastest
//! observed edge of each instance).

use crate::parse::Trace;
use clanbft_telemetry::span::{SpanSet, Stage};
use std::fmt::Write as _;

/// Estimates the one-way message delay δ (µs) as the median over spans of
/// `first echo at a party other than the proposer − propose time`.
/// `None` if no span has a remote echo.
fn estimate_delta(spans: &SpanSet) -> Option<u64> {
    let mut samples: Vec<u64> = Vec::new();
    for span in spans.spans.values() {
        let Some(proposed) = span.proposed_at else {
            continue;
        };
        let remote_echo = span
            .echoed
            .iter()
            .filter(|(p, _)| **p != span.proposer)
            .map(|(_, at)| *at)
            .min();
        if let Some(echo) = remote_echo {
            samples.push(echo.0.saturating_sub(proposed.0));
        }
    }
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    Some(samples[samples.len() / 2])
}

fn deltas(interval: u64, delta: Option<u64>) -> String {
    match delta {
        Some(d) if d > 0 => format!(" (~{:.1}δ)", interval as f64 / d as f64),
        _ => String::new(),
    }
}

/// Renders the full waterfall report for a parsed trace.
pub fn waterfall(trace: &Trace) -> String {
    let spans = &trace.spans;
    let delta = estimate_delta(spans);
    let n = trace.meta.n.unwrap_or(spans.parties.len() as u64);
    let mut out = String::new();
    let committed = spans
        .spans
        .values()
        .filter(|s| s.stage(&spans.committers) >= Stage::Ordered)
        .count();
    let _ = writeln!(
        out,
        "waterfall: {} blocks, {} ordered/committed, {} committing parties{}",
        spans.spans.len(),
        committed,
        spans.committers.len(),
        match delta {
            Some(d) => format!(", delta~={d}us"),
            None => String::new(),
        }
    );
    for span in spans.spans.values() {
        let stage = span.stage(&spans.committers);
        let mut flags = String::new();
        if span.leader {
            flags.push_str(" [leader]");
        }
        if span.equivocated() {
            flags.push_str(" [equivocated]");
        }
        let digest = span
            .digests
            .first()
            .map(|d| format!("{d:016x}"))
            .unwrap_or_else(|| "unknown".to_string());
        let _ = writeln!(
            out,
            "block r{}/p{} digest={} txs={} stage={}{}",
            span.round.0,
            span.proposer.0,
            digest,
            span.tx_count,
            stage.label(),
            flags
        );
        let Some(proposed) = span.proposed_at else {
            let _ = writeln!(out, "  proposed   (before trace start)");
            continue;
        };
        let _ = writeln!(out, "  proposed   @{}us", proposed.0);
        if let Some(echo) = span.first_echo() {
            let dt = echo.0.saturating_sub(proposed.0);
            let _ = writeln!(
                out,
                "  echoed     +{}us{} ({}/{} parties)",
                dt,
                deltas(dt, delta),
                span.echoed.len(),
                n
            );
        }
        if let Some(cert) = span.first_certified() {
            let dt = cert.0.saturating_sub(proposed.0);
            let slowest = span
                .slowest_certifier()
                .map(|(p, at)| format!(" slowest=p{}@+{}us", p.0, at.0.saturating_sub(proposed.0)))
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "  certified  +{}us{} ({} parties{})",
                dt,
                deltas(dt, delta),
                span.certified.len(),
                slowest
            );
        }
        if span.pull_starts > 0 || span.pull_retries > 0 {
            let _ = writeln!(
                out,
                "  pulls      started={} retries={}",
                span.pull_starts, span.pull_retries
            );
        }
        if let Some(first) = span.first_committed() {
            let dt = first.0.saturating_sub(proposed.0);
            let _ = writeln!(out, "  ordered    +{}us{}", dt, deltas(dt, delta));
        }
        if let Some(last) = span.last_committed() {
            let dt = last.0.saturating_sub(proposed.0);
            let _ = writeln!(
                out,
                "  committed  +{}us{} ({}/{} committers) total={}us",
                dt,
                deltas(dt, delta),
                span.committed.len(),
                spans.committers.len(),
                dt
            );
        }
        if stage < Stage::Ordered {
            let _ = writeln!(out, "  INCOMPLETE: never entered any total order");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_trace;

    fn sample_trace() -> Trace {
        let text = concat!(
            "{\"meta\":\"run\",\"n\":4,\"seed\":1,\"clans\":0}\n",
            "{\"at\":100,\"party\":0,\"ev\":\"vertex_proposed\",\"round\":1,\"txs\":5,",
            "\"digest\":\"00000000000000ab\",\"strong\":[],\"weak\":0}\n",
            "{\"at\":220,\"party\":1,\"ev\":\"rbc\",\"phase\":\"echoed\",\"round\":1,\"source\":0}\n",
            "{\"at\":230,\"party\":2,\"ev\":\"rbc\",\"phase\":\"echoed\",\"round\":1,\"source\":0}\n",
            "{\"at\":340,\"party\":1,\"ev\":\"rbc\",\"phase\":\"certified\",\"round\":1,\"source\":0}\n",
            "{\"at\":360,\"party\":2,\"ev\":\"rbc\",\"phase\":\"certified\",\"round\":1,\"source\":0}\n",
            "{\"at\":500,\"party\":1,\"ev\":\"vertex_committed\",\"round\":1,\"source\":0,",
            "\"leader\":true,\"seq\":0}\n",
            "{\"at\":520,\"party\":2,\"ev\":\"vertex_committed\",\"round\":1,\"source\":0,",
            "\"leader\":true,\"seq\":0}\n",
        );
        parse_trace(text).expect("parses")
    }

    #[test]
    fn renders_complete_span_with_stage_attribution() {
        let report = waterfall(&sample_trace());
        assert!(report.contains("block r1/p0 digest=00000000000000ab txs=5 stage=committed"));
        assert!(report.contains("[leader]"));
        assert!(report.contains("proposed   @100us"));
        assert!(report.contains("echoed     +120us"));
        assert!(report.contains("certified  +240us"));
        assert!(report.contains("slowest=p2@+260us"));
        assert!(report.contains("committed  +420us"));
        assert!(report.contains("total=420us"));
        assert!(!report.contains("INCOMPLETE"));
        // δ = median remote echo = 120us; total 420us ≈ 3.5δ.
        assert!(report.contains("delta~=120us"));
        assert!(report.contains("(~3.5δ)"));
    }

    #[test]
    fn incomplete_span_is_flagged() {
        let text = concat!(
            "{\"at\":100,\"party\":3,\"ev\":\"vertex_proposed\",\"round\":2,\"txs\":1,",
            "\"digest\":\"0000000000000001\",\"strong\":[],\"weak\":0}\n",
            "{\"at\":500,\"party\":0,\"ev\":\"vertex_committed\",\"round\":2,\"source\":1,",
            "\"leader\":true,\"seq\":0}\n",
        );
        let trace = parse_trace(text).expect("parses");
        let report = waterfall(&trace);
        assert!(report.contains("block r2/p3"));
        assert!(report.contains("INCOMPLETE"));
    }
}
