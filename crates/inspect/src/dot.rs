//! DOT and ASCII rendering of a round range of the reconstructed DAG.
//!
//! The DAG structure is reconstructed purely from `vertex_proposed` events
//! (each carries its strong-edge sources), and decorated from the rest of
//! the trace: committed vertices render solid, certified-but-uncommitted
//! dashed, equivocated ones marked. Output is fully deterministic (sorted
//! by round then party) so it can be pinned by golden-file tests.

use crate::parse::Trace;
use clanbft_telemetry::span::{Span, SpanSet, Stage};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The spans of rounds `from..=to` (a `None` bound means "from the first /
/// to the last round present"), grouped by round. Only rounds that have a
/// span appear, so rendering costs what the trace holds, not what the round
/// numbers written in it span.
fn selected_rounds(
    spans: &SpanSet,
    from: Option<u64>,
    to: Option<u64>,
) -> BTreeMap<u64, Vec<&Span>> {
    let mut rounds: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for ((round, _), span) in &spans.spans {
        if from.map_or(true, |lo| round.0 >= lo) && to.map_or(true, |hi| round.0 <= hi) {
            rounds.entry(round.0).or_default().push(span);
        }
    }
    rounds
}

/// `*` for a leader vertex, `!` for an equivocated one.
fn marks(span: &Span) -> String {
    let mut marks = String::new();
    if span.leader {
        marks.push('*');
    }
    if span.equivocated() {
        marks.push('!');
    }
    marks
}

/// Renders the round range `[from, to]` as a Graphviz digraph.
pub fn dot(trace: &Trace, from: Option<u64>, to: Option<u64>) -> String {
    let rounds = selected_rounds(&trace.spans, from, to);
    let mut out = String::new();
    out.push_str("digraph dag {\n");
    out.push_str("  rankdir=RL;\n");
    out.push_str("  node [shape=box fontname=\"monospace\"];\n");
    for (r, spans) in &rounds {
        let mut rank = String::new();
        for span in spans.iter().filter(|s| s.proposed_at.is_some()) {
            let stage = span.stage(&trace.spans.committers);
            let style = if stage >= Stage::Ordered {
                "solid"
            } else if stage >= Stage::Certified {
                "dashed"
            } else {
                "dotted"
            };
            let node = format!("r{r}p{}", span.proposer.0);
            let _ = writeln!(
                out,
                "  \"{node}\" [label=\"{node}{}\" style={style}];",
                marks(span)
            );
            let _ = write!(rank, " \"{node}\";");
        }
        if !rank.is_empty() {
            let _ = writeln!(out, "  {{ rank=same;{rank} }}");
        }
    }
    // Strong edges point one round back, so the first selected round has
    // none to draw inside the selection.
    for (r, spans) in rounds.iter().skip(1) {
        for span in spans.iter().filter(|s| s.proposed_at.is_some()) {
            for src in &span.strong {
                let _ = writeln!(
                    out,
                    "  \"r{r}p{}\" -> \"r{}p{}\";",
                    span.proposer.0,
                    r - 1,
                    src.0
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Renders the round range as ASCII, one round per block: each vertex with
/// its stage and strong-edge sources.
pub fn ascii(trace: &Trace, from: Option<u64>, to: Option<u64>) -> String {
    let mut out = String::new();
    for (r, spans) in selected_rounds(&trace.spans, from, to) {
        let _ = writeln!(out, "round {r}:");
        for span in spans.iter().filter(|s| s.proposed_at.is_some()) {
            let edges: Vec<String> = span.strong.iter().map(|p| format!("p{}", p.0)).collect();
            let _ = writeln!(
                out,
                "  p{}{} [{}] <- {}",
                span.proposer.0,
                marks(span),
                span.stage(&trace.spans.committers).label(),
                if edges.is_empty() {
                    "(genesis)".to_string()
                } else {
                    edges.join(" ")
                }
            );
        }
    }
    out
}

/// Parses a `--rounds a..b` style selector (either bound optional).
pub fn parse_round_range(arg: &str) -> Result<(Option<u64>, Option<u64>), String> {
    let Some((a, b)) = arg.split_once("..") else {
        let single: u64 = arg
            .parse()
            .map_err(|_| format!("bad round selector {arg:?}"))?;
        return Ok((Some(single), Some(single)));
    };
    let lo = if a.is_empty() {
        None
    } else {
        Some(a.parse().map_err(|_| format!("bad round {a:?}"))?)
    };
    let hi = if b.is_empty() {
        None
    } else {
        Some(b.parse().map_err(|_| format!("bad round {b:?}"))?)
    };
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_trace;

    #[test]
    fn round_range_selectors_parse() {
        assert_eq!(parse_round_range("3..5"), Ok((Some(3), Some(5))));
        assert_eq!(parse_round_range("..5"), Ok((None, Some(5))));
        assert_eq!(parse_round_range("3.."), Ok((Some(3), None)));
        assert_eq!(parse_round_range("4"), Ok((Some(4), Some(4))));
        assert!(parse_round_range("x..y").is_err());
    }

    #[test]
    fn ascii_renders_edges_and_stages() {
        let text = concat!(
            "{\"at\":10,\"party\":0,\"ev\":\"vertex_proposed\",\"round\":1,\"txs\":1,",
            "\"digest\":\"0000000000000001\",\"strong\":[],\"weak\":0}\n",
            "{\"at\":20,\"party\":1,\"ev\":\"vertex_proposed\",\"round\":2,\"txs\":1,",
            "\"digest\":\"0000000000000002\",\"strong\":[0],\"weak\":0}\n",
        );
        let trace = parse_trace(text).expect("parses");
        let text = ascii(&trace, None, None);
        assert!(text.contains("round 1:\n  p0 [proposed] <- (genesis)"));
        assert!(text.contains("round 2:\n  p1 [proposed] <- p0"));
    }

    #[test]
    fn dot_is_deterministic_and_structured() {
        let text = concat!(
            "{\"at\":10,\"party\":0,\"ev\":\"vertex_proposed\",\"round\":1,\"txs\":1,",
            "\"digest\":\"0000000000000001\",\"strong\":[],\"weak\":0}\n",
            "{\"at\":20,\"party\":1,\"ev\":\"vertex_proposed\",\"round\":2,\"txs\":1,",
            "\"digest\":\"0000000000000002\",\"strong\":[0],\"weak\":0}\n",
        );
        let trace = parse_trace(text).expect("parses");
        let a = dot(&trace, None, None);
        let b = dot(&trace, None, None);
        assert_eq!(a, b);
        assert!(a.starts_with("digraph dag {"));
        assert!(a.contains("\"r2p1\" -> \"r1p0\";"));
        assert!(a.contains("{ rank=same; \"r1p0\"; }"));
    }
}
