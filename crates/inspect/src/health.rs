//! Per-round DAG health: edge coverage, certificate wait, stragglers.
//!
//! A round is healthy when every proposed vertex is certified quickly,
//! referenced by the next round's strong edges, and committed. The report
//! surfaces the three ways rounds degrade: *missing edges* (a vertex no
//! next-round proposer strong-edged to — it arrived too late to make the
//! quorum cut), *certificate wait* (propose → last party certifies), and
//! the *slowest quorum member* (the party that most often certifies last,
//! i.e. the straggler a quorum waits on).

use crate::parse::Trace;
use clanbft_types::{PartyId, Round};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Health summary of one round.
#[derive(Clone, Debug, Default)]
pub struct RoundHealth {
    /// Vertices proposed in the round.
    pub proposed: u64,
    /// Of those, certified somewhere.
    pub certified: u64,
    /// Of those, in at least one total order.
    pub committed: u64,
    /// Proposed vertices never strong-edged by any next-round proposal
    /// (judged only when the next round proposed anything).
    pub missing_edges: u64,
    /// Parties buffering vertices of this round for missing parents.
    pub buffered: u64,
    /// Max propose → last-certification wait in the round (µs).
    pub max_cert_wait: u64,
    /// The party that certified last, most often (`None` if nothing
    /// certified).
    pub slowest: Option<PartyId>,
    /// Pull retries charged to the round's instances.
    pub pull_retries: u64,
}

/// Computes per-round health from a parsed trace, in round order.
pub fn round_health(trace: &Trace) -> BTreeMap<Round, RoundHealth> {
    let spans = &trace.spans;
    // Strong-edge coverage: which (round, proposer) pairs are referenced
    // by some next-round proposal.
    let mut referenced: BTreeSet<(Round, PartyId)> = BTreeSet::new();
    let mut rounds_with_next: BTreeSet<Round> = BTreeSet::new();
    for span in spans.spans.values() {
        if span.proposed_at.is_some() && span.round.0 > 0 {
            let prev = Round(span.round.0 - 1);
            rounds_with_next.insert(prev);
            for src in &span.strong {
                referenced.insert((prev, *src));
            }
        }
    }

    // Per round, how often each party was the last to certify.
    let mut last_counts: BTreeMap<Round, BTreeMap<PartyId, u64>> = BTreeMap::new();
    let mut out: BTreeMap<Round, RoundHealth> = BTreeMap::new();
    for span in spans.spans.values() {
        let h = out.entry(span.round).or_default();
        if span.proposed_at.is_some() {
            h.proposed += 1;
            if rounds_with_next.contains(&span.round)
                && !referenced.contains(&(span.round, span.proposer))
            {
                h.missing_edges += 1;
            }
        }
        if !span.certified.is_empty() {
            h.certified += 1;
        }
        if !span.committed.is_empty() {
            h.committed += 1;
        }
        h.buffered += span.buffered.len() as u64;
        h.pull_retries += span.pull_retries;
        if let (Some(prop), Some(last)) = (span.proposed_at, span.last_certified()) {
            h.max_cert_wait = h.max_cert_wait.max(last.0.saturating_sub(prop.0));
        }
        if let Some((p, _)) = span.slowest_certifier() {
            *last_counts
                .entry(span.round)
                .or_default()
                .entry(p)
                .or_insert(0) += 1;
        }
    }
    // Slowest quorum member per round: the party most often last to
    // certify (ties break to the lower id for determinism).
    for (round, counts) in &last_counts {
        out.entry(*round).or_default().slowest = counts
            .iter()
            .max_by_key(|(p, c)| (**c, std::cmp::Reverse(**p)))
            .map(|(p, _)| *p);
    }
    out
}

/// Renders the health report as text, one line per round.
pub fn health_report(trace: &Trace) -> String {
    let health = round_health(trace);
    let mut out = String::new();
    let _ = writeln!(out, "dag health: {} rounds", health.len());
    for (round, h) in &health {
        let slowest = h
            .slowest
            .map(|p| format!("p{}", p.0))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "round {}: proposed={} certified={} committed={} missing-edges={} \
             buffered={} cert-wait-max={}us slowest={} pull-retries={}",
            round.0,
            h.proposed,
            h.certified,
            h.committed,
            h.missing_edges,
            h.buffered,
            h.max_cert_wait,
            slowest,
            h.pull_retries
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_trace;

    #[test]
    fn detects_missing_edges_and_stragglers() {
        // Round 1: p0 and p1 propose; round 2: p0 proposes strong-edging
        // only p0 — p1's round-1 vertex has a missing edge.
        let text = concat!(
            "{\"at\":10,\"party\":0,\"ev\":\"vertex_proposed\",\"round\":1,\"txs\":1,",
            "\"digest\":\"0000000000000001\",\"strong\":[],\"weak\":0}\n",
            "{\"at\":11,\"party\":1,\"ev\":\"vertex_proposed\",\"round\":1,\"txs\":1,",
            "\"digest\":\"0000000000000002\",\"strong\":[],\"weak\":0}\n",
            "{\"at\":40,\"party\":1,\"ev\":\"rbc\",\"phase\":\"certified\",\"round\":1,\"source\":0}\n",
            "{\"at\":90,\"party\":2,\"ev\":\"rbc\",\"phase\":\"certified\",\"round\":1,\"source\":0}\n",
            "{\"at\":100,\"party\":0,\"ev\":\"vertex_proposed\",\"round\":2,\"txs\":1,",
            "\"digest\":\"0000000000000003\",\"strong\":[0],\"weak\":0}\n",
        );
        let trace = parse_trace(text).expect("parses");
        let health = round_health(&trace);
        let r1 = &health[&Round(1)];
        assert_eq!(r1.proposed, 2);
        assert_eq!(r1.certified, 1);
        assert_eq!(r1.missing_edges, 1);
        assert_eq!(r1.max_cert_wait, 80);
        assert_eq!(r1.slowest, Some(PartyId(2)));
        // Round 2 has no next round in the trace: no missing-edge verdict.
        assert_eq!(health[&Round(2)].missing_edges, 0);
        let report = health_report(&trace);
        assert!(report.contains("round 1: proposed=2 certified=1"));
        assert!(report.contains("missing-edges=1"));
        assert!(report.contains("slowest=p2"));
    }
}
