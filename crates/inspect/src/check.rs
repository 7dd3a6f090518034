//! Trace invariant checking (the `clanbft-inspect check` gate).
//!
//! Returns a list of human-readable violations; an empty list means the
//! trace is internally consistent. The invariants are the protocol's
//! observable safety/liveness obligations restated over the event log:
//!
//! 1. per party, committed sequence numbers increase by exactly one from 0
//!    and commit stamps are monotone;
//! 2. per party, entered rounds strictly increase;
//! 3. agreement: no two parties commit different vertices at the same
//!    sequence number;
//! 4. per committed vertex, propose ≤ certify ≤ commit in simulated time;
//! 5. completeness: every span proposed by a non-faulty party at least
//!    [`COMPLETENESS_MARGIN`] rounds before the last committed round must
//!    have entered some total order (a block proposed but never terminal
//!    is the bug this gate exists to catch);
//! 6. every evidence event belongs to an incident whose culprit is a
//!    configured attacker, when the trace declares its attack set;
//! 7. recovery continuity: a `recovery_completed` event's restored commit
//!    frontier equals exactly one past the party's last pre-restart commit
//!    — a lower frontier would re-emit (double-ack) committed sequences, a
//!    higher one silently lost them;
//! 8. no equivocation by honest proposers: a party never emits two
//!    different vertex digests for the same round — in particular a
//!    restarted party must re-broadcast its persisted proposal verbatim,
//!    not mint a fresh twin.

use crate::incident::incidents;
use crate::parse::Trace;
use clanbft_telemetry::span::Stage;
use clanbft_telemetry::Event;
use clanbft_types::{Micros, PartyId, Round};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Rounds of slack before an uncommitted span counts as incomplete: the
/// commit rule sweeps a round-`r` vertex in with the round-`r+1` or `r+2`
/// leader (2 rounds), plus one round of weak-edge scheduling slack — a
/// vertex going live late is re-attached by the first proposal of round
/// ≥ `r+2` made *after* it arrived whose strong edges do not reach it
/// already (a proposal that has a path to it carries it into the order
/// without an edge of its own), and when the run truncates at `max_round` a
/// slow party's tail can legitimately miss that last train. Anything older
/// than 3 rounds behind the last commit with no commit anywhere was
/// genuinely lost.
pub const COMPLETENESS_MARGIN: u64 = 3;

/// Runs every invariant; returns the violations (empty = pass).
pub fn check(trace: &Trace) -> Vec<String> {
    let mut violations = Vec::new();
    let spans = &trace.spans;

    // 1. Per-party sequence contiguity + stamp monotonicity.
    let mut last_commit: BTreeMap<PartyId, (u64, Micros)> = BTreeMap::new();
    // 3. Agreement: sequence → (round, source) must be consistent.
    let mut order: BTreeMap<u64, (Round, PartyId)> = BTreeMap::new();
    let mut commits = 0u64;
    for s in &trace.events {
        let Event::VertexCommitted {
            round,
            source,
            sequence,
            ..
        } = s.event
        else {
            continue;
        };
        commits += 1;
        match last_commit.get(&s.party) {
            None => {
                if sequence != 0 {
                    violations.push(format!(
                        "p{}: first commit has sequence {} (expected 0)",
                        s.party.0, sequence
                    ));
                }
            }
            Some(&(prev_seq, prev_at)) => {
                if Some(sequence) != prev_seq.checked_add(1) {
                    violations.push(format!(
                        "p{}: commit sequence jumped {} -> {}",
                        s.party.0, prev_seq, sequence
                    ));
                }
                if s.at < prev_at {
                    violations.push(format!(
                        "p{}: commit stamp went backwards ({} -> {})",
                        s.party.0, prev_at.0, s.at.0
                    ));
                }
            }
        }
        last_commit.insert(s.party, (sequence, s.at));
        match order.get(&sequence) {
            None => {
                order.insert(sequence, (round, source));
            }
            Some(&(r0, s0)) if (r0, s0) != (round, source) => {
                violations.push(format!(
                    "agreement violation at sequence {}: r{}/p{} vs r{}/p{}",
                    sequence, r0.0, s0.0, round.0, source.0
                ));
            }
            Some(_) => {}
        }
    }
    if commits == 0 {
        violations.push("trace contains no commits".to_string());
    }

    // 2. Per-party round entries strictly increase.
    let mut last_round: BTreeMap<PartyId, Round> = BTreeMap::new();
    for s in &trace.events {
        if let Event::RoundEntered { round } = s.event {
            if let Some(&prev) = last_round.get(&s.party) {
                if round <= prev {
                    violations.push(format!(
                        "p{}: re-entered round {} after {}",
                        s.party.0, round.0, prev.0
                    ));
                }
            }
            last_round.insert(s.party, round);
        }
    }

    // 4. Propose ≤ certify ≤ commit per span, at each committing party.
    for span in spans.spans.values() {
        let Some(prop) = span.proposed_at else {
            continue;
        };
        for (party, (at, _)) in &span.committed {
            if *at < prop {
                violations.push(format!(
                    "r{}/p{}: committed at p{} ({}us) before proposed ({}us)",
                    span.round.0, span.proposer.0, party.0, at.0, prop.0
                ));
            }
            if let Some(cert) = span.certified.get(party) {
                if cert < &prop || at < cert {
                    violations.push(format!(
                        "r{}/p{}: propose<=certify<=commit broken at p{} \
                         ({}us/{}us/{}us)",
                        span.round.0, span.proposer.0, party.0, prop.0, cert.0, at.0
                    ));
                }
            }
        }
    }

    // 5. Completeness: old-enough spans from non-faulty proposers must be
    // ordered. Faulty = an evidence culprit or a configured attacker
    // (equivocators' twins legitimately die; withholders' blocks commit,
    // so they stay constrained... unless evidence exempts them).
    let culprits = spans.culprits();
    let attackers: Vec<u32> = trace.meta.attacks.iter().map(|(p, _)| *p).collect();
    if spans.last_commit_round.0 > COMPLETENESS_MARGIN {
        let cutoff = spans.last_commit_round.0 - COMPLETENESS_MARGIN;
        for span in spans.spans.values() {
            if span.proposed_at.is_none() || span.round.0 > cutoff {
                continue;
            }
            if culprits.contains(&span.proposer) || attackers.contains(&span.proposer.0) {
                continue;
            }
            if span.stage(&spans.committers) < Stage::Ordered {
                violations.push(format!(
                    "incomplete span: r{}/p{} proposed at {}us, stuck at stage \
                     '{}' though commits reached round {}",
                    span.round.0,
                    span.proposer.0,
                    span.proposed_at.map(|m| m.0).unwrap_or(0),
                    span.stage(&spans.committers).label(),
                    spans.last_commit_round.0
                ));
            }
        }
    }

    // 6. Evidence ↔ incident correlation: when the trace declares its
    // attack set, every incident must name a configured attacker. (With no
    // meta line there is nothing to correlate against.)
    if !trace.meta.attacks.is_empty() {
        for inc in incidents(trace) {
            if inc.configured_attack.is_none() {
                violations.push(format!(
                    "evidence without matching incident attribution: {} against \
                     p{} ({} records) but p{} is not a configured attacker",
                    inc.kind, inc.culprit.0, inc.records, inc.culprit.0
                ));
            }
        }
    }

    // 7. Recovery continuity: the restored frontier must sit exactly one
    // past the party's last commit emitted before the restart. The WAL is
    // written before any commit becomes externally visible, so anything
    // else is a durability bug: a low frontier re-acks, a high one lost
    // committed history.
    let mut frontier: BTreeMap<PartyId, u64> = BTreeMap::new();
    for s in &trace.events {
        match s.event {
            Event::VertexCommitted { sequence, .. } => {
                frontier.insert(s.party, sequence.saturating_add(1));
            }
            Event::RecoveryCompleted {
                round, commit_seq, ..
            } => {
                let expected = frontier.get(&s.party).copied().unwrap_or(0);
                if commit_seq < expected {
                    violations.push(format!(
                        "p{}: recovery at round {} restored frontier {} but \
                         sequences up to {} were already emitted (would re-ack)",
                        s.party.0,
                        round.0,
                        commit_seq,
                        expected - 1
                    ));
                } else if commit_seq > expected {
                    violations.push(format!(
                        "p{}: recovery at round {} lost committed sequences \
                         {}..{} (frontier jumped past the emitted order)",
                        s.party.0, round.0, expected, commit_seq
                    ));
                }
            }
            _ => {}
        }
    }

    // 8. Equivocation by an honest proposer: two different digests for the
    // same (proposer, round). Configured attackers are exempt — minting
    // twins is exactly what the equivocation attack does, and invariant 6
    // already demands the evidence trail for it.
    let mut proposed: BTreeMap<(PartyId, Round), u64> = BTreeMap::new();
    for s in &trace.events {
        let Event::VertexProposed { round, digest, .. } = s.event else {
            continue;
        };
        if digest == 0 || attackers.contains(&s.party.0) {
            continue;
        }
        match proposed.get(&(s.party, round)) {
            None => {
                proposed.insert((s.party, round), digest);
            }
            Some(&d0) if d0 != digest => {
                violations.push(format!(
                    "p{}: equivocated at round {}: proposed digest {:016x} \
                     then {:016x} (a restart must re-broadcast, not re-mint)",
                    s.party.0, round.0, d0, digest
                ));
            }
            Some(_) => {}
        }
    }

    violations
}

/// Renders check results as text; second element is `true` on pass.
pub fn check_report(trace: &Trace) -> (String, bool) {
    let violations = check(trace);
    let mut out = String::new();
    if violations.is_empty() {
        let _ = writeln!(out, "check: OK ({} events)", trace.events.len());
        (out, true)
    } else {
        let _ = writeln!(out, "check: {} violation(s)", violations.len());
        for v in &violations {
            let _ = writeln!(out, "- {v}");
        }
        (out, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_trace;

    fn commit(at: u64, party: u32, round: u64, source: u32, seq: u64) -> String {
        format!(
            "{{\"at\":{at},\"party\":{party},\"ev\":\"vertex_committed\",\"round\":{round},\
             \"source\":{source},\"leader\":true,\"seq\":{seq}}}\n"
        )
    }

    fn propose(at: u64, party: u32, round: u64) -> String {
        format!(
            "{{\"at\":{at},\"party\":{party},\"ev\":\"vertex_proposed\",\"round\":{round},\
             \"txs\":1,\"digest\":\"0000000000000001\",\"strong\":[],\"weak\":0}}\n"
        )
    }

    #[test]
    fn clean_trace_passes() {
        let text = format!(
            "{}{}{}",
            propose(10, 0, 1),
            commit(50, 1, 1, 0, 0),
            commit(55, 2, 1, 0, 0)
        );
        let trace = parse_trace(&text).expect("parses");
        assert_eq!(check(&trace), Vec::<String>::new());
        let (report, ok) = check_report(&trace);
        assert!(ok);
        assert!(report.starts_with("check: OK"));
    }

    #[test]
    fn catches_sequence_gap_and_agreement_violation() {
        let text = format!(
            "{}{}{}{}",
            propose(10, 0, 1),
            commit(50, 1, 1, 0, 0),
            commit(60, 1, 2, 0, 2), // gap: 0 -> 2
            commit(70, 2, 2, 0, 0)  // agreement: seq 0 is r1/p0 elsewhere
        );
        let trace = parse_trace(&text).expect("parses");
        let violations = check(&trace);
        assert!(violations
            .iter()
            .any(|v| v.contains("sequence jumped 0 -> 2")));
        assert!(violations
            .iter()
            .any(|v| v.contains("agreement violation at sequence 0")));
    }

    #[test]
    fn catches_incomplete_span() {
        // p3's round-1 block never commits anywhere although commits reach
        // round 4 — incomplete.
        let mut text = propose(10, 0, 1) + &propose(11, 3, 1);
        text.push_str(&commit(50, 1, 1, 0, 0));
        text.push_str(&commit(80, 1, 4, 0, 1));
        let trace = parse_trace(&text).expect("parses");
        let violations = check(&trace);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("incomplete span: r1/p3")),
            "violations: {violations:?}"
        );
    }

    #[test]
    fn culprits_are_exempt_from_completeness() {
        let mut text = String::from(
            "{\"meta\":\"run\",\"n\":4,\"seed\":1,\"clans\":0,\"attacks\":\"3:equivocate\"}\n",
        );
        text.push_str(&propose(10, 0, 1));
        text.push_str(&propose(11, 3, 1));
        text.push_str(
            "{\"at\":20,\"party\":0,\"ev\":\"evidence\",\"kind\":\"equivocating_source\",\
             \"round\":1,\"culprit\":3}\n",
        );
        text.push_str(&commit(50, 1, 1, 0, 0));
        text.push_str(&commit(80, 1, 4, 0, 1));
        let trace = parse_trace(&text).expect("parses");
        assert_eq!(check(&trace), Vec::<String>::new());
    }

    fn recovery(at: u64, party: u32, round: u64, commit_seq: u64) -> String {
        format!(
            "{{\"at\":{at},\"party\":{party},\"ev\":\"recovery_completed\",\"round\":{round},\
             \"wal_records\":7,\"commit_seq\":{commit_seq}}}\n"
        )
    }

    fn propose_d(at: u64, party: u32, round: u64, digest: &str) -> String {
        format!(
            "{{\"at\":{at},\"party\":{party},\"ev\":\"vertex_proposed\",\"round\":{round},\
             \"txs\":1,\"digest\":\"{digest}\",\"strong\":[],\"weak\":0}}\n"
        )
    }

    #[test]
    fn recovery_with_exact_frontier_passes() {
        let text = format!(
            "{}{}{}{}{}",
            propose(10, 0, 1),
            commit(50, 1, 1, 0, 0),
            commit(55, 2, 1, 0, 0),
            recovery(90, 2, 2, 1), // p2 restarts; frontier = last seq + 1
            commit(95, 2, 2, 1, 1)
        );
        let trace = parse_trace(&text).expect("parses");
        assert_eq!(check(&trace), Vec::<String>::new());
    }

    #[test]
    fn recovery_frontier_regression_is_a_violation() {
        // p2 committed sequence 0 then recovered with frontier 0: replay
        // would re-emit (and re-ack) sequence 0.
        let text = format!(
            "{}{}{}{}",
            propose(10, 0, 1),
            commit(50, 1, 1, 0, 0),
            commit(55, 2, 1, 0, 0),
            recovery(90, 2, 2, 0)
        );
        let trace = parse_trace(&text).expect("parses");
        let violations = check(&trace);
        assert!(
            violations.iter().any(|v| v.contains("would re-ack")),
            "violations: {violations:?}"
        );
    }

    #[test]
    fn recovery_frontier_jump_is_a_violation() {
        // p2 recovered claiming sequences 1..3 were committed, but its
        // emitted order stops at 0: the WAL lost history.
        let text = format!(
            "{}{}{}{}",
            propose(10, 0, 1),
            commit(50, 1, 1, 0, 0),
            commit(55, 2, 1, 0, 0),
            recovery(90, 2, 2, 3)
        );
        let trace = parse_trace(&text).expect("parses");
        let violations = check(&trace);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("lost committed sequences 1..3")),
            "violations: {violations:?}"
        );
    }

    #[test]
    fn post_restart_equivocation_is_a_violation() {
        // p0 proposes round 1, restarts, and mints a *different* round-1
        // vertex instead of re-broadcasting the persisted one.
        let text = format!(
            "{}{}{}{}{}",
            propose_d(10, 0, 1, "00000000000000aa"),
            commit(50, 1, 1, 0, 0),
            recovery(90, 0, 1, 0),
            propose_d(95, 0, 1, "00000000000000bb"),
            commit(99, 0, 1, 0, 0)
        );
        let trace = parse_trace(&text).expect("parses");
        let violations = check(&trace);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("equivocated at round 1")),
            "violations: {violations:?}"
        );
    }

    #[test]
    fn configured_attackers_may_equivocate() {
        let mut text = String::from(
            "{\"meta\":\"run\",\"n\":4,\"seed\":1,\"clans\":0,\"attacks\":\"0:equivocate\"}\n",
        );
        text.push_str(&propose_d(10, 0, 1, "00000000000000aa"));
        text.push_str(&propose_d(11, 0, 1, "00000000000000bb"));
        text.push_str(&commit(50, 1, 1, 1, 0));
        let trace = parse_trace(&text).expect("parses");
        let violations = check(&trace);
        assert!(
            !violations.iter().any(|v| v.contains("equivocated")),
            "violations: {violations:?}"
        );
    }

    #[test]
    fn unattributed_evidence_fails_when_attacks_declared() {
        let mut text = String::from(
            "{\"meta\":\"run\",\"n\":4,\"seed\":1,\"clans\":0,\"attacks\":\"1:replay\"}\n",
        );
        text.push_str(&propose(10, 0, 1));
        text.push_str(
            "{\"at\":20,\"party\":0,\"ev\":\"evidence\",\"kind\":\"double_vote\",\
             \"round\":1,\"culprit\":2}\n",
        );
        text.push_str(&commit(50, 1, 1, 0, 0));
        let trace = parse_trace(&text).expect("parses");
        let violations = check(&trace);
        assert!(violations
            .iter()
            .any(|v| v.contains("evidence without matching incident attribution")));
    }
}
