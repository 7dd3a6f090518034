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

    fn vertex(round: u64, source: u32, strong: &[(u64, u32)]) -> Vertex {
        Vertex {
            round: Round(round),
            source: PartyId(source),
            block_digest: Digest::of(&[round as u8, source as u8]),
            block_bytes: 0,
            block_tx_count: 0,
            strong_edges: strong
                .iter()
                .map(|&(r, s)| VertexRef {
                    round: Round(r),
                    source: PartyId(s),
                })
                .collect(),
            weak_edges: Vec::new(),
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

    /// Leader of round r is party r mod 4.
    fn leader(r: Round) -> PartyId {
        PartyId((r.0 % 4) as u32)
    }

    /// Builds a DAG where every round links to all four predecessors.
    fn full_dag(rounds: u64) -> Dag {
        let mut dag = Dag::new(TribeParams::new(4));
        for s in 0..4 {
            dag.insert(vertex(0, s, &[]));
        }
        for r in 1..=rounds {
            let parents: Vec<(u64, u32)> = (0..4).map(|s| (r - 1, s)).collect();
            for s in 0..4 {
                assert!(matches!(
                    dag.insert(vertex(r, s, &parents)),
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
            dag.insert(vertex(0, s, &[]));
        }
        // Round 1: all vertices avoid the round-1 leader... rather, round 2
        // vertices avoid strong edges to the round-1 leader (party 1).
        for s in 0..4 {
            dag.insert(vertex(1, s, &[(0, 0), (0, 1), (0, 2)]));
        }
        for s in 0..4 {
            // Strong edges to round-1 parties 0, 2, 3 only.
            dag.insert(vertex(2, s, &[(1, 0), (1, 2), (1, 3)]));
        }
        let parents: Vec<(u64, u32)> = (0..4).map(|s| (2, s)).collect();
        dag.insert(vertex(3, 3, &parents));
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
            dag.insert(vertex(0, s, &[]));
        }
        // Round 1 exists without party 1's vertex (the leader).
        for s in [0u32, 2, 3] {
            dag.insert(vertex(1, s, &[(0, 0), (0, 1), (0, 2)]));
        }
        for s in 0..4 {
            dag.insert(vertex(2, s, &[(1, 0), (1, 2), (1, 3)]));
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
}
