//! What a post-restart state transfer adopts: one pure function over the
//! responders' replies.

use crate::messages::CommittedRec;
use clanbft_types::{PartyId, PartySet, Vertex, VertexId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One responder's reply: its well-formed vertices and committed suffix.
pub(crate) struct Reply {
    pub(crate) vertices: Vec<Arc<Vertex>>,
    pub(crate) committed: Vec<CommittedRec>,
}

/// What `quorum` of the responders (one reply each) shipped identically,
/// in the order it is applied: the commit entries in sequence order from
/// `next_seq`, those below it skipped, up to the first gap; then the
/// vertices with their ids in `(round, source, id)` order, which puts
/// parents first and is total however the replies disagree.
pub(crate) fn agree(
    replies: &BTreeMap<PartyId, Reply>,
    quorum: usize,
    next_seq: u64,
) -> (Vec<CommittedRec>, Vec<(Arc<Vertex>, VertexId)>) {
    let mut commits: BTreeMap<&CommittedRec, PartySet> = BTreeMap::new();
    let mut vertices = BTreeMap::new();
    for (&from, reply) in replies {
        for c in &reply.committed {
            commits.entry(c).or_default().insert(from);
        }
        for v in &reply.vertices {
            let slot = vertices.entry((v.round, v.source, v.id()));
            slot.or_insert((v, PartySet::default())).1.insert(from);
        }
    }
    let (mut order, mut window) = (Vec::new(), Vec::new());
    for (c, by) in commits {
        let next = next_seq + order.len() as u64;
        if c.sequence > next {
            break;
        }
        if c.sequence == next && by.count() >= quorum {
            order.push(c.clone());
        }
    }
    for ((.., id), (v, by)) in vertices {
        if by.count() >= quorum {
            window.push((Arc::clone(v), id));
        }
    }
    (order, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_crypto::Digest;
    use clanbft_testkit::{check_shrink, tk_assert, tk_assert_eq};
    use clanbft_types::{Round, VertexRef};
    use std::collections::{HashMap, HashSet};

    /// The entry at `sequence`; `variant` 0 is the honest one, any other a
    /// forgery of it.
    fn rec(sequence: u64, variant: u32) -> CommittedRec {
        CommittedRec {
            sequence,
            vertex: VertexRef {
                round: Round(sequence),
                source: PartyId(variant),
            },
            block_digest: Digest::ZERO,
            block_bytes: 0,
            block_tx_count: 0,
            leader_round: Round(sequence),
        }
    }

    /// `source`'s vertex of `round`; `variant` 0 is the honest one.
    fn vertex(round: u64, source: u32, variant: u8) -> Arc<Vertex> {
        let mut v = Vertex::genesis(PartyId(source), Digest::of(&[variant]));
        v.round = Round(round);
        Arc::new(v)
    }

    fn replies(answers: Vec<(u32, Vec<CommittedRec>)>) -> BTreeMap<PartyId, Reply> {
        let reply = |committed| Reply {
            vertices: Vec::new(),
            committed,
        };
        let answers = answers.into_iter();
        answers.map(|(p, c)| (PartyId(p), reply(c))).collect()
    }

    fn sequences(order: &[CommittedRec]) -> Vec<u64> {
        order.iter().map(|c| c.sequence).collect()
    }

    #[test]
    fn a_forger_answering_first_voids_the_transfer() {
        // ROADMAP item 5's first probe, n = 4 and f + 1 = 2: P3 forges a
        // one-entry suffix and answers first, P1 answers honestly, and the
        // two settle the transfer. The honest entries have one voucher of
        // the two they need: nothing is adopted. Prefix agreement flips
        // this row (it keeps collecting, and P2's reply makes the match).
        let forged = vec![rec(0, 3)];
        let honest = (0..3).map(|s| rec(s, 0)).collect();
        let (order, _) = agree(&replies(vec![(3, forged), (1, honest)]), 2, 0);
        assert_eq!(sequences(&order), Vec::<u64>::new());
    }

    #[test]
    fn a_lagging_responder_shortens_the_adopted_suffix() {
        // ROADMAP item 5's second probe: two honest responders, one of them
        // two entries behind the other. Adoption stops at the lower
        // frontier, though the tribe committed more; prefix agreement flips
        // this row once another responder vouches for the rest.
        let ahead = (0..5).map(|s| rec(s, 0)).collect();
        let lagging = (0..3).map(|s| rec(s, 0)).collect();
        let (order, _) = agree(&replies(vec![(1, ahead), (2, lagging)]), 2, 0);
        assert_eq!(sequences(&order), vec![0, 1, 2]);
    }

    #[test]
    fn entries_below_the_frontier_are_skipped_and_a_gap_stops_adoption() {
        // Both responders vouch for 1..=6 less 4: from `next_seq` 3 that is
        // 3 alone, and nothing after the hole at 4 is adopted. 1 and 2 are
        // already ordered here and are skipped, not counted as a gap.
        let suffix: Vec<CommittedRec> = [1, 2, 3, 5, 6].map(|s| rec(s, 0)).to_vec();
        let both = replies(vec![(1, suffix.clone()), (2, suffix)]);
        assert_eq!(sequences(&agree(&both, 2, 3).0), vec![3]);
        assert_eq!(sequences(&agree(&both, 2, 5).0), vec![5, 6]);
        assert_eq!(sequences(&agree(&both, 2, 7).0), Vec::<u64>::new());
    }

    #[test]
    fn vertices_need_a_quorum_and_come_in_round_source_id_order() {
        // P1 and P2 agree on round 1 of source 0 and on round 0 of source 2;
        // P1 alone ships round 0 of source 1. P1's second copy counts once.
        let r1 = vertex(1, 0, 0);
        let r0 = vertex(0, 2, 0);
        let alone = vertex(0, 1, 0);
        let mut both = replies(vec![(1, vec![]), (2, vec![])]);
        both.get_mut(&PartyId(1)).unwrap().vertices = vec![
            Arc::clone(&r1),
            Arc::clone(&alone),
            Arc::clone(&alone),
            Arc::clone(&r0),
        ];
        both.get_mut(&PartyId(2)).unwrap().vertices = vec![Arc::clone(&r0), Arc::clone(&r1)];
        let (_, window) = agree(&both, 2, 0);
        let ids: Vec<VertexId> = window.iter().map(|(_, id)| *id).collect();
        assert_eq!(ids, vec![r0.id(), r1.id()]);
    }

    /// The tallies and loops `agree` replaced: `on_state_reply`'s candidate
    /// maps of confirming responders, then `finish_catchup`'s filter, sort
    /// and contiguity walk. The sorts break ties as `agree` does, where the
    /// maps' order decided them; only replies that disagree on one sequence
    /// or one `(round, source)` tie.
    fn naive(
        replies: &BTreeMap<PartyId, Reply>,
        quorum: usize,
        next_seq: u64,
    ) -> (Vec<CommittedRec>, Vec<VertexId>) {
        let mut vertices: HashMap<VertexId, (Arc<Vertex>, HashSet<PartyId>)> = HashMap::new();
        let mut commits: HashMap<CommittedRec, HashSet<PartyId>> = HashMap::new();
        for (from, reply) in replies {
            for v in &reply.vertices {
                let id = v.id();
                vertices
                    .entry(id)
                    .or_insert_with(|| (Arc::clone(v), HashSet::new()))
                    .1
                    .insert(*from);
            }
            for c in &reply.committed {
                commits.entry(c.clone()).or_default().insert(*from);
            }
        }
        let mut entries: Vec<CommittedRec> = commits
            .into_iter()
            .filter(|(_, peers)| peers.len() >= quorum)
            .map(|(c, _)| c)
            .collect();
        entries.sort_by(|a, b| a.sequence.cmp(&b.sequence).then(a.cmp(b)));
        let mut adopted = Vec::new();
        for entry in entries {
            let next = next_seq + adopted.len() as u64;
            if entry.sequence < next {
                continue;
            }
            if entry.sequence > next {
                break;
            }
            adopted.push(entry);
        }
        let mut vs: Vec<(Arc<Vertex>, VertexId)> = vertices
            .into_iter()
            .filter(|(_, (_, peers))| peers.len() >= quorum)
            .map(|(id, (v, _))| (v, id))
            .collect();
        vs.sort_by_key(|(v, id)| (v.round, v.source, *id));
        (adopted, vs.into_iter().map(|(_, id)| id).collect())
    }

    /// One responder's reply, drawn from two words. The suffix: a start in
    /// 0..4 and up to 7 entries, each left out with odds 1/4 (a hole) and
    /// forged with odds 1/4, the first sometimes shipped twice. The window:
    /// each of 16 slots (round 0..4, source 0..4) shipped with odds 1/2 and
    /// forged with odds 1/4, the first sometimes twice.
    fn reply(commit_bits: u64, vertex_bits: u64) -> Reply {
        let both = |bits: u64, at: u32| bits >> at & 3 == 3;
        let start = commit_bits & 3;
        let len = commit_bits >> 2 & 7;
        let mut committed: Vec<CommittedRec> = (0..len)
            .filter(|&k| !both(commit_bits, 8 + 2 * k as u32))
            .map(|k| rec(start + k, u32::from(both(commit_bits, 24 + 2 * k as u32))))
            .collect();
        let mut vertices: Vec<Arc<Vertex>> = (0..16u32)
            .filter(|&slot| vertex_bits >> slot & 1 == 1)
            .map(|slot| {
                let forged = u8::from(both(vertex_bits, 16 + 2 * slot));
                vertex(u64::from(slot / 4), slot % 4, forged)
            })
            .collect();
        if commit_bits >> 40 & 1 == 1 {
            committed.extend(committed.first().cloned());
        }
        if vertex_bits >> 48 & 1 == 1 {
            vertices.extend(vertices.first().cloned());
        }
        Reply {
            vertices,
            committed,
        }
    }

    /// `agree` against [`naive`], and what a transfer needs of it. Tribes
    /// of 4 to 10 with `f + 1` or a random quorum; up to `n` responders
    /// (some parties silent), a frontier in 0..4.
    #[test]
    fn agree_matches_a_naive_transcription_of_the_tallies() {
        check_shrink(
            "agree_matches_a_naive_transcription_of_the_tallies",
            256,
            |g| {
                let answers = g.vec(0, 11, |g| (g.u64(), g.u64()));
                (g.u32(), answers)
            },
            |(shape, answers)| {
                let n = 4 + *shape as usize % 7;
                let quorum = match shape >> 6 & 1 {
                    0 => (n - 1) / 3 + 1,
                    _ => 1 + (shape >> 8) as usize % n,
                };
                let next_seq = u64::from(shape >> 4 & 3);
                let replies: BTreeMap<PartyId, Reply> = answers
                    .iter()
                    .take(n)
                    .enumerate()
                    .filter(|(_, (c, _))| c >> 62 != 3)
                    .map(|(i, &(c, v))| (PartyId(i as u32), reply(c, v)))
                    .collect();
                let (order, window) = agree(&replies, quorum, next_seq);
                let ids: Vec<VertexId> = window.iter().map(|(_, id)| *id).collect();
                tk_assert_eq!((order.clone(), ids), naive(&replies, quorum, next_seq));

                // What the applier relies on, whatever the model says.
                let vouchers = |shipped: &dyn Fn(&Reply) -> bool| {
                    replies.values().filter(|r| shipped(r)).count()
                };
                for (k, c) in order.iter().enumerate() {
                    tk_assert_eq!(c.sequence, next_seq + k as u64);
                    tk_assert!(vouchers(&|r| r.committed.contains(c)) >= quorum, "{c:?}");
                }
                for pair in window.windows(2) {
                    let key = |(v, id): &(Arc<Vertex>, VertexId)| (v.round, v.source, *id);
                    tk_assert!(key(&pair[0]) < key(&pair[1]), "out of order");
                }
                for (v, id) in &window {
                    tk_assert_eq!(v.id(), *id);
                    let shipped = |r: &Reply| r.vertices.iter().any(|w| w.id() == *id);
                    tk_assert!(vouchers(&shipped) >= quorum, "{id:?}");
                }
                Ok(())
            },
        );
    }
}
