//! Causal commit spans: one block's lifecycle reconstructed from a trace.
//!
//! The paper's latency claims (leader 3δ, non-leader 5δ, t-RBC shaving a
//! round off dissemination) are statements about *one block's* journey:
//! proposed at its source, echoed by the clan, certified tribe-wide,
//! swept into a leader's causal history, committed everywhere. This module
//! folds a merged multi-party event stream into typed [`Span`]s so that
//! journey is a value, not a grep.
//!
//! A span is keyed by `(Round, proposer)` — the identity every RBC and
//! consensus event carries. The block digest cannot be part of the key
//! (most events are digest-free by design, to keep the log compact), so
//! the span instead *accumulates* every digest prefix observed for the
//! instance: a benign span holds exactly one; two or more means the
//! proposer equivocated and the span covers all its twins.
//!
//! The stage state machine is monotone:
//!
//! ```text
//! Proposed → Echoed(k/n) → Certified → Ordered → Committed
//! ```
//!
//! * `Proposed`  — the proposer's `vertex_proposed` event is in the trace.
//! * `Echoed`    — at least one party echoed the instance's digest; `k/n`
//!   is how many of the trace's parties have echoed so far.
//! * `Certified` — some party observed the digest certified (2f+1 READYs
//!   or an echo certificate).
//! * `Ordered`   — at least one party placed the vertex in its total
//!   order.
//! * `Committed` — every party that commits anything in the trace placed
//!   it (the strongest statement a finite trace supports; a crash-faulty
//!   party that never commits does not hold every span below `Committed`).
//!
//! [`SpanSet::from_events`] is the only fold from events to lifecycles;
//! everything that asks about a block's journey reads the spans. One such
//! readout lives here: [`SpanSet::stage_breakdown`], the commit-latency
//! stage breakdown that checks the 3δ/5δ arithmetic against a run. For
//! every committed vertex, at every committing party, it splits the
//! propose→commit interval into
//!
//! * `rbc`    — proposed at the source → RBC-certified at the committing
//!   party (the dissemination phase), and
//! * `commit` — certified → in that party's total order (the
//!   voting/anchoring phase),
//!
//! aggregated per commit path (leader / non-leader, by the flag the
//! consensus layer stamps on `vertex_committed`); for leader vertices the
//! certify→vote gap is recorded as well.

use crate::event::{Event, RbcPhase, Stamped};
use crate::hist::Histogram;
use crate::ndjson::JsonObj;
use clanbft_types::{Micros, PartyId, Round};
use std::collections::{BTreeMap, BTreeSet};

crate::labelled! {
    /// How far through its lifecycle a block has provably progressed.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    pub enum Stage {
        /// Proposed at the source; no echo observed yet.
        Proposed = "proposed",
        /// Echoed by at least one party.
        Echoed = "echoed",
        /// Certified at at least one party.
        Certified = "certified",
        /// Committed at at least one party.
        Ordered = "ordered",
        /// Committed at every party that commits anything in the trace.
        Committed = "committed",
    }
}

/// One block's reconstructed lifecycle across all parties.
#[derive(Clone, Debug)]
pub struct Span {
    /// Proposal round (span key, first half).
    pub round: Round,
    /// The proposing party (span key, second half).
    pub proposer: PartyId,
    /// Distinct digest prefixes observed for this instance, in first-seen
    /// order. More than one means the proposer equivocated.
    pub digests: Vec<u64>,
    /// Transactions in the proposed block (0 if the propose event is
    /// missing from the trace).
    pub tx_count: u64,
    /// Previous-round strong-edge sources of the proposal.
    pub strong: Vec<PartyId>,
    /// When the proposer emitted the block (absent for warm-up instances
    /// whose propose predates the trace).
    pub proposed_at: Option<Micros>,
    /// First echo per echoing party.
    pub echoed: BTreeMap<PartyId, Micros>,
    /// First certification observation per party.
    pub certified: BTreeMap<PartyId, Micros>,
    /// Parties that had to buffer the vertex for missing causal parents,
    /// with the buffering time.
    pub buffered: BTreeMap<PartyId, Micros>,
    /// First vote for this vertex as its round's leader, per voting party.
    pub voted: BTreeMap<PartyId, Micros>,
    /// Commit time and total-order sequence per committing party.
    pub committed: BTreeMap<PartyId, (Micros, u64)>,
    /// Whether any party committed this vertex as the round leader (3δ
    /// direct path) rather than via a later leader's history (5δ path).
    pub leader: bool,
    /// Pulls started for this instance across all parties.
    pub pull_starts: u64,
    /// Pull retries (deadline expiries with peer rotation) across all
    /// parties — the recovery stage withholding attacks force victims
    /// into.
    pub pull_retries: u64,
}

impl Span {
    /// An empty span for the given key.
    pub fn new(round: Round, proposer: PartyId) -> Span {
        Span {
            round,
            proposer,
            digests: Vec::new(),
            tx_count: 0,
            strong: Vec::new(),
            proposed_at: None,
            echoed: BTreeMap::new(),
            certified: BTreeMap::new(),
            buffered: BTreeMap::new(),
            voted: BTreeMap::new(),
            committed: BTreeMap::new(),
            leader: false,
            pull_starts: 0,
            pull_retries: 0,
        }
    }

    /// The stage this span has reached, judged against the set of parties
    /// that commit anything in the trace (see module docs for `Committed`
    /// semantics).
    pub fn stage(&self, committers: &BTreeSet<PartyId>) -> Stage {
        if !self.committed.is_empty()
            && !committers.is_empty()
            && committers.iter().all(|p| self.committed.contains_key(p))
        {
            Stage::Committed
        } else if !self.committed.is_empty() {
            Stage::Ordered
        } else if !self.certified.is_empty() {
            Stage::Certified
        } else if !self.echoed.is_empty() {
            Stage::Echoed
        } else {
            Stage::Proposed
        }
    }

    /// Earliest echo anywhere.
    pub fn first_echo(&self) -> Option<Micros> {
        self.echoed.values().min().copied()
    }

    /// Earliest certification anywhere.
    pub fn first_certified(&self) -> Option<Micros> {
        self.certified.values().min().copied()
    }

    /// Latest certification among parties that certified.
    pub fn last_certified(&self) -> Option<Micros> {
        self.certified.values().max().copied()
    }

    /// Earliest commit anywhere.
    pub fn first_committed(&self) -> Option<Micros> {
        self.committed.values().map(|(at, _)| *at).min()
    }

    /// Latest commit anywhere.
    pub fn last_committed(&self) -> Option<Micros> {
        self.committed.values().map(|(at, _)| *at).max()
    }

    /// The slowest certifier: the party whose certification observation
    /// arrived last, i.e. the straggler a quorum would wait on.
    pub fn slowest_certifier(&self) -> Option<(PartyId, Micros)> {
        self.certified
            .iter()
            .max_by_key(|(p, at)| (**at, **p))
            .map(|(p, at)| (*p, *at))
    }

    /// Whether more than one digest was observed (equivocation).
    pub fn equivocated(&self) -> bool {
        self.digests.len() > 1
    }
}

/// All spans of one trace plus the trace-wide context needed to judge them.
#[derive(Clone, Debug, Default)]
pub struct SpanSet {
    /// Spans keyed by `(round, proposer)`, in round order.
    pub spans: BTreeMap<(Round, PartyId), Span>,
    /// Every party observed emitting any event.
    pub parties: BTreeSet<PartyId>,
    /// Parties that committed at least one vertex.
    pub committers: BTreeSet<PartyId>,
    /// Highest round with a commit anywhere (0 if nothing committed).
    pub last_commit_round: Round,
    /// Evidence events seen: `(kind, round, culprit, observer, at)`.
    pub evidence: Vec<(String, Round, PartyId, PartyId, Micros)>,
}

impl SpanSet {
    /// Folds a merged multi-party event stream into spans.
    ///
    /// Unknown or span-irrelevant events are skipped; the fold is a single
    /// pass and deterministic (BTreeMap ordering throughout).
    pub fn from_events(events: &[Stamped]) -> SpanSet {
        let mut set = SpanSet::default();
        for s in events {
            set.parties.insert(s.party);
            match &s.event {
                Event::VertexProposed {
                    round,
                    tx_count,
                    digest,
                    strong,
                    ..
                } => {
                    let span = set.span_mut(*round, s.party);
                    span.proposed_at.get_or_insert(s.at);
                    span.tx_count = *tx_count;
                    span.strong = strong.clone();
                    if !span.digests.contains(digest) {
                        span.digests.push(*digest);
                    }
                }
                Event::Rbc {
                    phase,
                    round,
                    source,
                } => {
                    let party = s.party;
                    let span = set.span_mut(*round, *source);
                    match phase {
                        RbcPhase::Echoed => {
                            span.echoed.entry(party).or_insert(s.at);
                        }
                        RbcPhase::Certified => {
                            span.certified.entry(party).or_insert(s.at);
                        }
                        RbcPhase::PullStarted => span.pull_starts += 1,
                        RbcPhase::PullRetry => span.pull_retries += 1,
                        RbcPhase::ValSent
                        | RbcPhase::EchoQuorum
                        | RbcPhase::DeliverFull
                        | RbcPhase::DeliverMeta => {}
                    }
                }
                Event::DagBuffered { round, source } => {
                    set.span_mut(*round, *source)
                        .buffered
                        .entry(s.party)
                        .or_insert(s.at);
                }
                Event::LeaderVote { round, leader } => {
                    // A vote follows the proposal it is for, so it never
                    // has to open a span (and a trace whose head was
                    // evicted gains no phantom blocks from stray votes).
                    if let Some(span) = set.spans.get_mut(&(*round, *leader)) {
                        span.voted.entry(s.party).or_insert(s.at);
                    }
                }
                Event::VertexCommitted {
                    round,
                    source,
                    leader,
                    sequence,
                } => {
                    set.committers.insert(s.party);
                    if round.0 > set.last_commit_round.0 {
                        set.last_commit_round = *round;
                    }
                    let span = set.span_mut(*round, *source);
                    span.committed.entry(s.party).or_insert((s.at, *sequence));
                    span.leader |= *leader;
                }
                Event::EvidenceRecorded {
                    kind,
                    round,
                    culprit,
                } => {
                    set.evidence
                        .push((kind.to_string(), *round, *culprit, s.party, s.at));
                }
                _ => {}
            }
        }
        set
    }

    fn span_mut(&mut self, round: Round, proposer: PartyId) -> &mut Span {
        self.spans
            .entry((round, proposer))
            .or_insert_with(|| Span::new(round, proposer))
    }

    /// Parties named as culprits by any evidence record.
    pub fn culprits(&self) -> BTreeSet<PartyId> {
        self.evidence.iter().map(|(_, _, c, _, _)| *c).collect()
    }

    /// The commit-latency stage breakdown (see module docs): one sample per
    /// committed vertex per committing party.
    ///
    /// Only spans whose propose event is present are aggregated (warm-up
    /// commits referencing pre-trace proposals are skipped), and per-party
    /// intervals are clamped at zero — a party can learn a certificate
    /// through a later vertex's carried justification before its own RBC
    /// instance certifies.
    pub fn stage_breakdown(&self) -> StageBreakdown {
        let mut out = StageBreakdown::default();
        for span in self.spans.values() {
            let Some(prop) = span.proposed_at else {
                continue;
            };
            let stats = if span.leader {
                &mut out.leader
            } else {
                &mut out.non_leader
            };
            for (party, (at, _)) in &span.committed {
                // Certified implicitly (e.g. through a carried
                // certificate): attribute the whole interval to the RBC
                // stage.
                let cert = span.certified.get(party).copied().unwrap_or(*at);
                stats.commits += 1;
                stats.rbc.record(cert.0.saturating_sub(prop.0));
                stats.commit.record(at.0.saturating_sub(cert.0));
                stats.total.record(at.0.saturating_sub(prop.0));
                if let Some(vote) = span.voted.get(party).filter(|_| span.leader) {
                    stats.cert_to_vote.record(vote.0.saturating_sub(cert.0));
                }
            }
        }
        out
    }
}

/// Aggregated stage timings for one commit path (leader or non-leader).
#[derive(Clone, Debug, Default)]
pub struct StageStats {
    /// Vertices aggregated (one sample per committing party per vertex).
    pub commits: u64,
    /// Propose at source → RBC-certified at the committing party (µs).
    pub rbc: Histogram,
    /// RBC-certified → committed at the committing party (µs).
    pub commit: Histogram,
    /// Propose → committed, end to end (µs).
    pub total: Histogram,
    /// Certify → leader vote (leader path only; empty for non-leader).
    pub cert_to_vote: Histogram,
}

impl StageStats {
    fn render(&self, path: &str) -> String {
        let mut obj = JsonObj::new()
            .str("stage_breakdown", path)
            .u64("commits", self.commits);
        for (stage, hist) in [
            ("rbc", &self.rbc),
            ("commit", &self.commit),
            ("total", &self.total),
        ] {
            let (p50, p90, p99, max) = hist.readout();
            for (suffix, v) in [("p50", p50), ("p90", p90), ("p99", p99), ("max", max)] {
                obj = obj.u64(&format!("{stage}_{suffix}"), v);
            }
        }
        obj.finish()
    }
}

/// The full breakdown: leader vs. non-leader commit paths.
#[derive(Clone, Debug, Default)]
pub struct StageBreakdown {
    /// Round-leader vertices (direct 3δ path).
    pub leader: StageStats,
    /// Non-leader vertices (committed via a later leader's history).
    pub non_leader: StageStats,
}

impl StageBreakdown {
    /// Two NDJSON lines (`leader`, `non_leader`), each with a trailing
    /// newline.
    pub fn to_ndjson(&self) -> String {
        format!(
            "{}\n{}\n",
            self.leader.render("leader"),
            self.non_leader.render("non_leader")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, party: u32, event: Event) -> Stamped {
        Stamped {
            at: Micros(at),
            party: PartyId(party),
            event,
        }
    }

    fn rbc(phase: RbcPhase, round: u64, source: u32) -> Event {
        Event::Rbc {
            phase,
            round: Round(round),
            source: PartyId(source),
        }
    }

    #[test]
    fn folds_one_block_through_all_stages() {
        let events = vec![
            ev(
                100,
                0,
                Event::VertexProposed {
                    round: Round(1),
                    tx_count: 7,
                    digest: 0xabcd,
                    strong: vec![PartyId(0), PartyId(1)],
                    weak: 1,
                },
            ),
            ev(150, 1, rbc(RbcPhase::Echoed, 1, 0)),
            ev(160, 2, rbc(RbcPhase::Echoed, 1, 0)),
            ev(250, 1, rbc(RbcPhase::Certified, 1, 0)),
            ev(260, 2, rbc(RbcPhase::Certified, 1, 0)),
            ev(300, 2, rbc(RbcPhase::PullStarted, 1, 0)),
            ev(400, 2, rbc(RbcPhase::PullRetry, 1, 0)),
            ev(
                500,
                1,
                Event::VertexCommitted {
                    round: Round(1),
                    source: PartyId(0),
                    leader: true,
                    sequence: 0,
                },
            ),
            ev(
                520,
                2,
                Event::VertexCommitted {
                    round: Round(1),
                    source: PartyId(0),
                    leader: true,
                    sequence: 0,
                },
            ),
        ];
        let set = SpanSet::from_events(&events);
        let span = &set.spans[&(Round(1), PartyId(0))];
        assert_eq!(span.proposed_at, Some(Micros(100)));
        assert_eq!(span.digests, vec![0xabcd]);
        assert!(!span.equivocated());
        assert_eq!(span.tx_count, 7);
        assert_eq!(span.echoed.len(), 2);
        assert_eq!(span.first_echo(), Some(Micros(150)));
        assert_eq!(span.first_certified(), Some(Micros(250)));
        assert_eq!(span.slowest_certifier(), Some((PartyId(2), Micros(260))));
        assert_eq!(span.pull_starts, 1);
        assert_eq!(span.pull_retries, 1);
        assert_eq!(span.last_committed(), Some(Micros(520)));
        assert!(span.leader);
        // Both committers (1 and 2) committed it: fully committed.
        assert_eq!(set.committers.len(), 2);
        assert_eq!(span.stage(&set.committers), Stage::Committed);
        assert_eq!(set.last_commit_round, Round(1));
    }

    #[test]
    fn partial_progress_maps_to_intermediate_stages() {
        let proposed = ev(
            10,
            3,
            Event::VertexProposed {
                round: Round(2),
                tx_count: 1,
                digest: 1,
                strong: vec![],
                weak: 0,
            },
        );
        let committers: BTreeSet<PartyId> = [PartyId(0), PartyId(1)].into_iter().collect();

        let set = SpanSet::from_events(std::slice::from_ref(&proposed));
        assert_eq!(
            set.spans[&(Round(2), PartyId(3))].stage(&committers),
            Stage::Proposed
        );

        let set = SpanSet::from_events(&[proposed.clone(), ev(20, 0, rbc(RbcPhase::Echoed, 2, 3))]);
        assert_eq!(
            set.spans[&(Round(2), PartyId(3))].stage(&committers),
            Stage::Echoed
        );

        let set =
            SpanSet::from_events(&[proposed.clone(), ev(30, 0, rbc(RbcPhase::Certified, 2, 3))]);
        assert_eq!(
            set.spans[&(Round(2), PartyId(3))].stage(&committers),
            Stage::Certified
        );

        // Committed at one of two committers: ordered, not committed.
        let set = SpanSet::from_events(&[
            proposed,
            ev(
                40,
                0,
                Event::VertexCommitted {
                    round: Round(2),
                    source: PartyId(3),
                    leader: false,
                    sequence: 0,
                },
            ),
        ]);
        assert_eq!(
            set.spans[&(Round(2), PartyId(3))].stage(&committers),
            Stage::Ordered
        );
    }

    #[test]
    fn equivocating_twins_share_one_span() {
        let events = vec![
            ev(
                5,
                1,
                Event::VertexProposed {
                    round: Round(1),
                    tx_count: 2,
                    digest: 0x11,
                    strong: vec![],
                    weak: 0,
                },
            ),
            ev(
                6,
                1,
                Event::VertexProposed {
                    round: Round(1),
                    tx_count: 2,
                    digest: 0x22,
                    strong: vec![],
                    weak: 0,
                },
            ),
            ev(
                9,
                0,
                Event::EvidenceRecorded {
                    kind: "equivocating_source",
                    round: Round(1),
                    culprit: PartyId(1),
                },
            ),
        ];
        let set = SpanSet::from_events(&events);
        let span = &set.spans[&(Round(1), PartyId(1))];
        assert_eq!(span.digests, vec![0x11, 0x22]);
        assert!(span.equivocated());
        assert_eq!(
            set.culprits().into_iter().collect::<Vec<_>>(),
            vec![PartyId(1)]
        );
    }

    #[test]
    fn stage_ordering_is_the_lifecycle_order() {
        assert!(Stage::Proposed < Stage::Echoed);
        assert!(Stage::Echoed < Stage::Certified);
        assert!(Stage::Certified < Stage::Ordered);
        assert!(Stage::Ordered < Stage::Committed);
    }

    fn proposed(round: Round, tx_count: u64) -> Event {
        Event::VertexProposed {
            round,
            tx_count,
            digest: 0,
            strong: Vec::new(),
            weak: 0,
        }
    }

    #[test]
    fn splits_leader_and_non_leader_paths() {
        let r = Round(1);
        let leader = PartyId(0);
        let other = PartyId(1);
        let events = vec![
            ev(100, 0, proposed(r, 5)),
            ev(110, 1, proposed(r, 5)),
            // Party 2 certifies both vertices, votes for the leader, then
            // commits leader (3δ path) and non-leader (later, 5δ path).
            ev(
                300,
                2,
                Event::Rbc {
                    phase: RbcPhase::Certified,
                    round: r,
                    source: leader,
                },
            ),
            ev(
                320,
                2,
                Event::Rbc {
                    phase: RbcPhase::Certified,
                    round: r,
                    source: other,
                },
            ),
            ev(350, 2, Event::LeaderVote { round: r, leader }),
            ev(
                600,
                2,
                Event::VertexCommitted {
                    round: r,
                    source: other,
                    leader: false,
                    sequence: 0,
                },
            ),
            ev(
                600,
                2,
                Event::VertexCommitted {
                    round: r,
                    source: leader,
                    leader: true,
                    sequence: 1,
                },
            ),
        ];
        let b = SpanSet::from_events(&events).stage_breakdown();
        assert_eq!(b.leader.commits, 1);
        assert_eq!(b.non_leader.commits, 1);
        // Leader vertex: propose 100, certified 300, committed 600.
        assert_eq!(b.leader.rbc.max(), 200);
        assert_eq!(b.leader.commit.max(), 300);
        assert_eq!(b.leader.total.max(), 500);
        assert_eq!(b.leader.cert_to_vote.max(), 50);
        // Non-leader vertex: propose 110, certified 320, committed 600.
        assert_eq!(b.non_leader.rbc.max(), 210);
        assert_eq!(b.non_leader.commit.max(), 280);
        assert_eq!(b.non_leader.total.max(), 490);
        assert_eq!(b.non_leader.cert_to_vote.count(), 0);
        // Renders two NDJSON lines.
        let nd = b.to_ndjson();
        assert_eq!(nd.lines().count(), 2);
        assert!(nd.starts_with(r#"{"stage_breakdown":"leader","commits":1"#));
    }

    #[test]
    fn commit_without_propose_is_skipped() {
        let events = vec![ev(
            50,
            0,
            Event::VertexCommitted {
                round: Round(9),
                source: PartyId(3),
                leader: true,
                sequence: 0,
            },
        )];
        let b = SpanSet::from_events(&events).stage_breakdown();
        assert_eq!(b.leader.commits, 0);
        assert_eq!(b.non_leader.commits, 0);
    }

    #[test]
    fn missing_certify_attributes_interval_to_rbc() {
        let r = Round(2);
        let src = PartyId(1);
        let events = vec![
            ev(100, 1, proposed(r, 1)),
            ev(
                400,
                0,
                Event::VertexCommitted {
                    round: r,
                    source: src,
                    leader: false,
                    sequence: 0,
                },
            ),
        ];
        let b = SpanSet::from_events(&events).stage_breakdown();
        assert_eq!(b.non_leader.rbc.max(), 300);
        assert_eq!(b.non_leader.commit.max(), 0);
        assert_eq!(b.non_leader.total.max(), 300);
    }
}
