//! Leader-chain resolution and total ordering.
//!
//! When a leader vertex commits *directly* (via votes or supporting
//! edges), leaders of skipped rounds in between may still have to be
//! committed *indirectly*: walking backward from the newly committed
//! leader, a past leader vertex joins the chain iff a strong path connects
//! the current chain head to it. All honest parties resolve the same chain
//! — that is what makes the total order consistent. (This is the ordering
//! backbone shared by Bullshark, Shoal and Sailfish; the direct-commit rules
//! differ per protocol and live in `clanbft-consensus`.)

use crate::store::Dag;
use clanbft_types::{PartyId, Round, VertexRef};

/// Resolves the chain of leader vertices to commit, oldest first, ending
/// with `new_leader`.
///
/// * `last_committed` — the most recent leader round already ordered (the
///   walk stops above it, or at the DAG horizon).
/// * `leader_at` — the leader schedule.
///
/// A skipped round's leader vertex is included iff it is live and the
/// current chain head has a strong path to it.
pub fn commit_chain(
    dag: &Dag,
    last_committed: Option<Round>,
    new_leader: VertexRef,
    leader_at: impl Fn(Round) -> PartyId,
) -> Vec<VertexRef> {
    let _prof = clanbft_profiler::scope("dag.commit_chain");
    let mut chain = vec![new_leader];
    let mut head = new_leader;
    let floor = last_committed.map(|r| r.0 + 1).unwrap_or(dag.horizon().0);
    let mut r = new_leader.round.0;
    while r > floor {
        r -= 1;
        let candidate = VertexRef {
            round: Round(r),
            source: leader_at(Round(r)),
        };
        if dag.get(&candidate).is_some() && dag.exists_strong_path(&head, &candidate) {
            chain.push(candidate);
            head = candidate;
        }
    }
    chain.reverse();
    chain
}

/// Emits the total-order delta for a resolved leader chain: for each leader
/// (oldest first), its not-yet-ordered causal history in deterministic
/// `(round, source)` order.
pub fn causal_order(dag: &mut Dag, chain: &[VertexRef]) -> Vec<VertexRef> {
    let _prof = clanbft_profiler::scope("dag.causal_order");
    let mut out = Vec::new();
    for leader in chain {
        out.extend(dag.take_causal_history(leader));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::InsertOutcome;
    use clanbft_crypto::Digest;
    use clanbft_types::{TribeParams, Vertex};

    fn vertex(round: u64, source: u32, strong: &[(u64, u32)], weak: &[(u64, u32)]) -> Vertex {
        Vertex {
            round: Round(round),
            source: PartyId(source),
            block_digest: Digest::of(&[round as u8, source as u8]),
            block_bytes: 0,
            block_tx_count: 0,
            strong_edges: refs(strong),
            weak_edges: refs(weak),
            nvc: None,
            tc: None,
        }
    }

    fn vref(round: u64, source: u32) -> VertexRef {
        VertexRef {
            round: Round(round),
            source: PartyId(source),
        }
    }

    fn refs(of: &[(u64, u32)]) -> Vec<VertexRef> {
        of.iter().map(|&(r, s)| vref(r, s)).collect()
    }

    /// Leader of round r is party r mod 4.
    fn leader(r: Round) -> PartyId {
        PartyId((r.0 % 4) as u32)
    }

    /// Builds a DAG where every round links to all four predecessors.
    fn full_dag(rounds: u64) -> Dag {
        let mut dag = Dag::new(TribeParams::new(4));
        for s in 0..4 {
            dag.insert(vertex(0, s, &[], &[]));
        }
        for r in 1..=rounds {
            let parents: Vec<(u64, u32)> = (0..4).map(|s| (r - 1, s)).collect();
            for s in 0..4 {
                assert!(matches!(
                    dag.insert(vertex(r, s, &parents, &[])),
                    InsertOutcome::Live(_)
                ));
            }
        }
        dag
    }

    #[test]
    fn chain_includes_all_connected_leaders() {
        let dag = full_dag(4);
        let chain = commit_chain(&dag, None, vref(4, 0), leader);
        assert_eq!(
            chain,
            vec![vref(0, 0), vref(1, 1), vref(2, 2), vref(3, 3), vref(4, 0)],
            "every intermediate leader (including genesis) is strongly connected"
        );
        // With last_committed = Some(Round(2)) only rounds 3..4 qualify.
        let chain = commit_chain(&dag, Some(Round(2)), vref(4, 0), leader);
        assert_eq!(chain, vec![vref(3, 3), vref(4, 0)]);
    }

    #[test]
    fn disconnected_leader_is_skipped() {
        let mut dag = Dag::new(TribeParams::new(4));
        for s in 0..4 {
            dag.insert(vertex(0, s, &[], &[]));
        }
        // Round 1: all vertices avoid the round-1 leader... rather, round 2
        // vertices avoid strong edges to the round-1 leader (party 1).
        for s in 0..4 {
            dag.insert(vertex(1, s, &[(0, 0), (0, 1), (0, 2)], &[]));
        }
        for s in 0..4 {
            // Strong edges to round-1 parties 0, 2, 3 only.
            dag.insert(vertex(2, s, &[(1, 0), (1, 2), (1, 3)], &[]));
        }
        let parents: Vec<(u64, u32)> = (0..4).map(|s| (2, s)).collect();
        dag.insert(vertex(3, 3, &parents, &[]));
        let chain = commit_chain(&dag, Some(Round(0)), vref(3, 3), leader);
        assert_eq!(
            chain,
            vec![vref(2, 2), vref(3, 3)],
            "round-1 leader (party 1) unreachable by strong paths"
        );
    }

    #[test]
    fn missing_leader_vertex_is_skipped() {
        let mut dag = Dag::new(TribeParams::new(4));
        for s in 0..4 {
            dag.insert(vertex(0, s, &[], &[]));
        }
        // Round 1 exists without party 1's vertex (the leader).
        for s in [0u32, 2, 3] {
            dag.insert(vertex(1, s, &[(0, 0), (0, 1), (0, 2)], &[]));
        }
        for s in 0..4 {
            dag.insert(vertex(2, s, &[(1, 0), (1, 2), (1, 3)], &[]));
        }
        let chain = commit_chain(&dag, Some(Round(0)), vref(2, 2), leader);
        assert_eq!(chain, vec![vref(2, 2)]);
    }

    #[test]
    fn causal_order_covers_everything_once() {
        let mut dag = full_dag(4);
        let chain = commit_chain(&dag, None, vref(4, 0), leader);
        let order = causal_order(&mut dag, &chain);
        // 4 rounds × 4 vertices + the round-4 leader itself.
        assert_eq!(order.len(), 17);
        let mut dedup = order.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), order.len(), "no duplicates");
        // Later chain segments contribute nothing already ordered.
        let chain2 = commit_chain(&dag, Some(Round(4)), vref(5, 1), leader);
        assert_eq!(chain2, vec![vref(5, 1)]);
    }

    /// One vertex: round, source, strong edges, weak edges.
    type Row<'a> = (u64, u32, &'a [(u64, u32)], &'a [(u64, u32)]);

    /// Inserts `rows`, every one going live.
    fn dag_of(n: usize, rows: &[Row]) -> Dag {
        let mut dag = Dag::new(TribeParams::new(n));
        for &(r, s, strong, weak) in rows {
            let outcome = dag.insert(vertex(r, s, strong, weak));
            assert!(matches!(outcome, InsertOutcome::Live(_)), "({r},{s})");
        }
        dag
    }

    /// Commits `leader` directly after `last_committed`: the resolved chain
    /// and the order it emits.
    fn commit(
        dag: &mut Dag,
        last_committed: Option<u64>,
        (round, source): (u64, u32),
    ) -> (Vec<VertexRef>, Vec<VertexRef>) {
        let new_leader = vref(round, source);
        let chain = commit_chain(dag, last_committed.map(Round), new_leader, leader);
        let order = causal_order(dag, &chain);
        (chain, order)
    }

    /// A weak edge to a late vertex. P3's vertices of rounds 0 and 1 came
    /// late: no round-2 vertex cites (1,3), and P3 has no round-2 vertex.
    /// (3,1) cites (1,3) through a weak edge (`··>`); every other edge is
    /// strong, and a vertex whose edges are not drawn cites P0, P1 and P2
    /// of the round below.
    /// ```text
    /// round 5                (5,1) -> (4,0) (4,1) (4,2)
    /// round 4   (4,0) -> (3,0) (3,1) (3,3)
    ///           (4,1) -> (3,1) (3,2) (3,3)
    ///           (4,2) -> (3,0) (3,1) (3,2)
    /// round 3   (3,0) (3,1) (3,2) (3,3)      (3,1) ··> (1,3)
    /// round 2   (2,0) (2,1) (2,2)
    /// round 1   (1,0) (1,1) (1,2)      (1,3) -> (0,1) (0,2) (0,3)
    /// round 0   (0,0) (0,1) (0,2) (0,3)
    /// ```
    /// Leaders (2,2), (4,0) and (5,1) commit in turn. (3,3) joins (4,0)'s
    /// chain but does not reach (1,3); (4,0) is the first committed leader
    /// that does, through (3,1)'s weak edge, so (1,3) — and (0,3), which
    /// only it cites — is ordered in (4,0)'s history, at its `(round,
    /// source)` position: ahead of round 3. (5,1) reaches it again and
    /// orders it no second time.
    #[test]
    fn a_weak_edge_orders_a_late_vertex_once_with_the_first_leader_reaching_it() {
        let base = |r: u64| [(r, 0), (r, 1), (r, 2)];
        let (b0, b1, b2) = (base(0), base(1), base(2));
        let mut dag = dag_of(
            4,
            &[
                (0, 0, &[], &[]),
                (0, 1, &[], &[]),
                (0, 2, &[], &[]),
                (0, 3, &[], &[]),
                (1, 0, &b0, &[]),
                (1, 1, &b0, &[]),
                (1, 2, &b0, &[]),
                (1, 3, &[(0, 1), (0, 2), (0, 3)], &[]),
                (2, 0, &b1, &[]),
                (2, 1, &b1, &[]),
                (2, 2, &b1, &[]),
                (3, 0, &b2, &[]),
                (3, 1, &b2, &[(1, 3)]),
                (3, 2, &b2, &[]),
                (3, 3, &b2, &[]),
                (4, 0, &[(3, 0), (3, 1), (3, 3)], &[]),
                (4, 1, &[(3, 1), (3, 2), (3, 3)], &[]),
                (4, 2, &[(3, 0), (3, 1), (3, 2)], &[]),
                (5, 1, &[(4, 0), (4, 1), (4, 2)], &[]),
            ],
        );
        let (chain, order) = commit(&mut dag, None, (2, 2));
        assert_eq!(chain, refs(&[(0, 0), (1, 1), (2, 2)]));
        #[rustfmt::skip]
        assert_eq!(order, refs(&[
            (0, 0),
            (0, 1), (0, 2), (1, 1),
            (1, 0), (1, 2), (2, 2),
        ]));
        let (chain, order) = commit(&mut dag, Some(2), (4, 0));
        assert_eq!(chain, refs(&[(3, 3), (4, 0)]));
        #[rustfmt::skip]
        assert_eq!(order, refs(&[
            (2, 0), (2, 1), (3, 3),
            (0, 3), (1, 3), (3, 0), (3, 1), (4, 0),
        ]));
        let (chain, order) = commit(&mut dag, Some(4), (5, 1));
        assert_eq!(chain, refs(&[(5, 1)]));
        assert_eq!(order, refs(&[(3, 2), (4, 1), (4, 2), (5, 1)]));
    }

    /// `f` vertices missing from a round, plus an indirect commit. Round 3
    /// lacks P3's vertex — its leader's. Rounds 1 and 2 cite all four
    /// vertices below them; round 3 cites three each.
    /// ```text
    /// round 4   (4,0) -> (3,0) (3,1) (3,2)
    /// round 3   (3,0) -> (2,0) (2,1) (2,3)
    ///           (3,1) -> (2,1) (2,2) (2,3)
    ///           (3,2) -> (2,0) (2,2) (2,3)     (3,3) missing
    /// round 2   (2,0) (2,1) (2,2) (2,3)
    /// round 1   (1,0) (1,1) (1,2) (1,3)
    /// round 0   (0,0) (0,1) (0,2) (0,3)
    /// ```
    /// (1,1) commits first. When (4,0) commits directly, the walk back
    /// skips round 3, whose leader vertex is missing, and (2,2), two rounds
    /// back, joins the chain through the strong path (4,0) -> (3,1) ->
    /// (2,2). Its history is ordered before (4,0)'s.
    #[test]
    fn a_leader_two_rounds_back_commits_across_a_missing_leader() {
        let all = |r: u64| [(r, 0), (r, 1), (r, 2), (r, 3)];
        let (a0, a1) = (all(0), all(1));
        let mut dag = dag_of(
            4,
            &[
                (0, 0, &[], &[]),
                (0, 1, &[], &[]),
                (0, 2, &[], &[]),
                (0, 3, &[], &[]),
                (1, 0, &a0, &[]),
                (1, 1, &a0, &[]),
                (1, 2, &a0, &[]),
                (1, 3, &a0, &[]),
                (2, 0, &a1, &[]),
                (2, 1, &a1, &[]),
                (2, 2, &a1, &[]),
                (2, 3, &a1, &[]),
                (3, 0, &[(2, 0), (2, 1), (2, 3)], &[]),
                (3, 1, &[(2, 1), (2, 2), (2, 3)], &[]),
                (3, 2, &[(2, 0), (2, 2), (2, 3)], &[]),
                (4, 0, &[(3, 0), (3, 1), (3, 2)], &[]),
            ],
        );
        let (chain, order) = commit(&mut dag, None, (1, 1));
        assert_eq!(chain, refs(&[(0, 0), (1, 1)]));
        assert_eq!(order, refs(&[(0, 0), (0, 1), (0, 2), (0, 3), (1, 1)]));
        let (chain, order) = commit(&mut dag, Some(1), (4, 0));
        assert_eq!(chain, refs(&[(2, 2), (4, 0)]));
        #[rustfmt::skip]
        assert_eq!(order, refs(&[
            (1, 0), (1, 2), (1, 3), (2, 2),
            (2, 0), (2, 1), (2, 3), (3, 0), (3, 1), (3, 2), (4, 0),
        ]));
    }
}
