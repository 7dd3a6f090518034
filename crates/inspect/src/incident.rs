//! Incident report: correlating recorded `Evidence` with the attack.
//!
//! Evidence events name a culprit and a conflict kind; the trace's meta
//! line names the attacks that were actually configured. The report groups
//! evidence into per-culprit incidents, matches each against the
//! configured attack, and — for attacks that by design leave no direct
//! evidence (withholding is not a provable conflict, it is an absence) —
//! surfaces the indirect signal instead: pull retries charged to the
//! attacker's own instances.

use crate::parse::Trace;
use clanbft_types::{PartyId, Round};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// One grouped incident: all evidence of one kind against one culprit.
#[derive(Clone, Debug)]
pub struct Incident {
    /// Evidence kind label.
    pub kind: String,
    /// The accused party.
    pub culprit: PartyId,
    /// Number of evidence records.
    pub records: u64,
    /// Distinct parties that recorded the evidence.
    pub observers: u64,
    /// Lowest and highest implicated round.
    pub rounds: (Round, Round),
    /// Time of the first record.
    pub first_at: u64,
    /// The configured attack on the culprit, if the meta line names one.
    pub configured_attack: Option<String>,
}

/// Groups the trace's evidence into incidents (deterministic order:
/// culprit, then kind).
pub fn incidents(trace: &Trace) -> Vec<Incident> {
    let mut grouped: BTreeMap<(PartyId, &str), (Incident, BTreeSet<PartyId>)> = BTreeMap::new();
    for (kind, round, culprit, observer, at) in &trace.spans.evidence {
        let (inc, observers) = grouped.entry((*culprit, kind)).or_insert_with(|| {
            let incident = Incident {
                kind: kind.clone(),
                culprit: *culprit,
                records: 0,
                observers: 0,
                rounds: (*round, *round),
                first_at: at.0,
                configured_attack: trace
                    .meta
                    .attacks
                    .iter()
                    .find(|(p, _)| *p == culprit.0)
                    .map(|(_, attack)| attack.clone()),
            };
            (incident, BTreeSet::new())
        });
        inc.records += 1;
        inc.rounds.0 = inc.rounds.0.min(*round);
        inc.rounds.1 = inc.rounds.1.max(*round);
        inc.first_at = inc.first_at.min(at.0);
        observers.insert(*observer);
        inc.observers = observers.len() as u64;
    }
    grouped.into_values().map(|(inc, _)| inc).collect()
}

/// Renders the incident report, including indirect signals for configured
/// attacks that left no direct evidence.
pub fn incident_report(trace: &Trace) -> String {
    let incs = incidents(trace);
    let mut out = String::new();
    let _ = writeln!(out, "incidents: {}", incs.len());
    for inc in &incs {
        let attack = match &inc.configured_attack {
            Some(a) => format!(" matches-attack={a}"),
            None => " matches-attack=NONE(unexplained)".to_string(),
        };
        let _ = writeln!(
            out,
            "- {} culprit=p{} records={} observers={} rounds=[{}..{}] first@{}us{}",
            inc.kind,
            inc.culprit.0,
            inc.records,
            inc.observers,
            inc.rounds.0 .0,
            inc.rounds.1 .0,
            inc.first_at,
            attack
        );
    }
    // Configured attacks with no direct evidence: report the indirect
    // signal (or its absence) so the correlation is total.
    for (party, attack) in &trace.meta.attacks {
        if incs.iter().any(|i| i.culprit.0 == *party) {
            continue;
        }
        let retries: u64 = trace
            .spans
            .spans
            .values()
            .filter(|s| s.proposer.0 == *party)
            .map(|s| s.pull_retries)
            .sum();
        let _ = writeln!(
            out,
            "- attack {attack} on p{party}: no direct evidence (by design for \
             omission faults); indirect signal: pull-retries={retries} on its instances"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_trace;

    #[test]
    fn groups_evidence_and_matches_the_attack() {
        let text = concat!(
            "{\"meta\":\"run\",\"n\":7,\"seed\":1,\"clans\":0,\"attacks\":\"1:equivocate,4:withhold\"}\n",
            "{\"at\":10,\"party\":0,\"ev\":\"evidence\",\"kind\":\"equivocating_source\",",
            "\"round\":1,\"culprit\":1}\n",
            "{\"at\":12,\"party\":2,\"ev\":\"evidence\",\"kind\":\"equivocating_source\",",
            "\"round\":2,\"culprit\":1}\n",
            "{\"at\":20,\"party\":0,\"ev\":\"vertex_proposed\",\"round\":1,\"txs\":1,",
            "\"digest\":\"0000000000000009\",\"strong\":[],\"weak\":0}\n",
            "{\"at\":30,\"party\":4,\"ev\":\"vertex_proposed\",\"round\":1,\"txs\":1,",
            "\"digest\":\"000000000000000a\",\"strong\":[],\"weak\":0}\n",
            "{\"at\":90,\"party\":2,\"ev\":\"rbc\",\"phase\":\"pull_retry\",\"round\":1,\"source\":4}\n",
        );
        let trace = parse_trace(text).expect("parses");
        let incs = incidents(&trace);
        assert_eq!(incs.len(), 1);
        assert_eq!(incs[0].kind, "equivocating_source");
        assert_eq!(incs[0].culprit, PartyId(1));
        assert_eq!(incs[0].records, 2);
        assert_eq!(incs[0].observers, 2);
        assert_eq!(incs[0].rounds, (Round(1), Round(2)));
        assert_eq!(incs[0].configured_attack.as_deref(), Some("equivocate"));
        let report = incident_report(&trace);
        assert!(report.contains("matches-attack=equivocate"));
        // The withholder produced no evidence: indirect signal line.
        assert!(report.contains("attack withhold on p4"));
        assert!(report.contains("pull-retries=1"));
    }

    #[test]
    fn unexplained_evidence_is_called_out() {
        let text = concat!(
            "{\"at\":10,\"party\":0,\"ev\":\"evidence\",\"kind\":\"double_vote\",",
            "\"round\":3,\"culprit\":5}\n",
        );
        let trace = parse_trace(text).expect("parses");
        let report = incident_report(&trace);
        assert!(report.contains("matches-attack=NONE(unexplained)"));
    }
}
