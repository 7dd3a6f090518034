//! End-to-end consensus tests: all three protocol variants over the
//! discrete-event simulator — safety (identical total orders, consistent
//! execution), liveness under crashed leaders, and the clan bandwidth
//! claim.

use clanbft_consensus::{ConsensusMsg, NodeConfig, SailfishNode};
use clanbft_crypto::{Authenticator, Registry, Scheme};
use clanbft_mempool::WorkloadSpec;
use clanbft_rbc::ClanTopology;
use clanbft_simnet::cost::CostModel;
use clanbft_simnet::net::{SimConfig, Simulator};
use clanbft_types::{Micros, PartyId, Round, TribeParams, VertexRef};
use std::sync::Arc;

type Sim = Simulator<ConsensusMsg, SailfishNode>;

struct TribeSpec {
    n: usize,
    topology: Arc<ClanTopology>,
    txs_per_proposal: u32,
    max_round: u64,
    gc_depth: Option<u64>,
    execute: bool,
    crash: Vec<(u32, Micros)>,
    seed: u64,
}

impl TribeSpec {
    fn whole_tribe(n: usize) -> TribeSpec {
        TribeSpec {
            n,
            topology: Arc::new(ClanTopology::whole_tribe(TribeParams::new(n))),
            txs_per_proposal: 50,
            max_round: 8,
            gc_depth: Some(16),
            execute: false,
            crash: vec![],
            seed: 42,
        }
    }

    fn single_clan(n: usize, clan: Vec<u32>) -> TribeSpec {
        let topology = Arc::new(ClanTopology::single_clan(
            TribeParams::new(n),
            clan.iter().map(|&i| PartyId(i)).collect(),
        ));
        TribeSpec {
            n,
            topology,
            txs_per_proposal: 50,
            max_round: 8,
            gc_depth: Some(16),
            execute: false,
            crash: vec![],
            seed: 42,
        }
    }

    fn multi_clan(n: usize, clans: Vec<Vec<u32>>) -> TribeSpec {
        let topology = Arc::new(ClanTopology::multi_clan(
            TribeParams::new(n),
            clans
                .iter()
                .map(|c| c.iter().map(|&i| PartyId(i)).collect())
                .collect(),
        ));
        TribeSpec {
            n,
            topology,
            txs_per_proposal: 50,
            max_round: 8,
            gc_depth: Some(16),
            execute: false,
            crash: vec![],
            seed: 42,
        }
    }

    fn build(&self) -> Sim {
        let (registry, keypairs) = Registry::generate(Scheme::Keyed, self.n, self.seed);
        let mut sim_cfg = SimConfig::benign(self.n, self.seed);
        sim_cfg.cost = CostModel::free();
        for &(node, at) in &self.crash {
            sim_cfg.crash_at[node as usize] = Some(at);
        }
        let nodes: Vec<SailfishNode> = keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| {
                let auth = Arc::new(Authenticator::new(i, kp, Arc::clone(&registry)));
                let mut cfg = NodeConfig::new(PartyId(i as u32), Arc::clone(&self.topology));
                cfg.cost = CostModel::free();
                cfg.workload = WorkloadSpec::Synthetic {
                    txs_per_proposal: self.txs_per_proposal,
                }
                .into();
                cfg.max_round = Some(self.max_round);
                cfg.gc_depth = self.gc_depth;
                cfg.execute = self.execute;
                cfg.timeout = Micros::from_millis(1_500);
                SailfishNode::new(cfg, auth)
            })
            .collect();
        Simulator::new(sim_cfg, nodes)
    }
}

fn order_of(node: &SailfishNode) -> Vec<VertexRef> {
    node.committed_log.iter().map(|c| c.vertex).collect()
}

fn assert_prefix_consistent(sim: &Sim, live: &[u32]) {
    let longest = live
        .iter()
        .map(|&i| order_of(sim.node(PartyId(i))))
        .max_by_key(Vec::len)
        .expect("nonempty");
    for &i in live {
        let o = order_of(sim.node(PartyId(i)));
        assert_eq!(
            &longest[..o.len()],
            o.as_slice(),
            "node {i}'s order is not a prefix of the longest order"
        );
    }
}

#[test]
fn sailfish_baseline_commits_and_agrees() {
    let spec = TribeSpec::whole_tribe(4);
    let mut sim = spec.build();
    sim.run_until(Micros::from_secs(60));
    let all: Vec<u32> = (0..4).collect();
    assert_prefix_consistent(&sim, &all);
    for i in 0..4u32 {
        let node = sim.node(PartyId(i));
        assert!(
            node.last_committed().is_some(),
            "node {i} committed nothing"
        );
        assert!(
            node.committed_txs() > 0,
            "node {i} committed no transactions"
        );
        assert!(
            node.round() >= Round(8),
            "node {i} stuck at {}",
            node.round()
        );
    }
    // Every proposer's blocks appear in the order.
    let order = order_of(sim.node(PartyId(0)));
    for p in 0..4u32 {
        assert!(
            order.iter().any(|v| v.source == PartyId(p)),
            "party {p} never ordered"
        );
    }
}

#[test]
fn single_clan_commits_with_consistent_order() {
    let spec = TribeSpec::single_clan(7, vec![0, 2, 4]);
    let mut sim = spec.build();
    sim.run_until(Micros::from_secs(60));
    let all: Vec<u32> = (0..7).collect();
    assert_prefix_consistent(&sim, &all);
    let node0 = sim.node(PartyId(0));
    assert!(node0.committed_txs() > 0);
    // Non-clan vertices are ordered too, but carry no transactions.
    let empty_block_vertices: Vec<&clanbft_consensus::CommittedVertex> = node0
        .committed_log
        .iter()
        .filter(|c| ![0, 2, 4].contains(&c.vertex.source.0))
        .collect();
    assert!(
        !empty_block_vertices.is_empty(),
        "non-clan vertices participate"
    );
    assert!(
        empty_block_vertices.iter().all(|c| c.block_tx_count == 0),
        "non-clan parties must not carry transactions"
    );
    // Clan vertices do carry them.
    assert!(node0
        .committed_log
        .iter()
        .any(|c| c.vertex.source == PartyId(2) && c.block_tx_count > 0));
}

#[test]
fn multi_clan_commits_with_consistent_order() {
    let spec = TribeSpec::multi_clan(6, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    let mut sim = spec.build();
    sim.run_until(Micros::from_secs(60));
    let all: Vec<u32> = (0..6).collect();
    assert_prefix_consistent(&sim, &all);
    let node0 = sim.node(PartyId(0));
    // Every party proposes real blocks under multi-clan.
    for p in 0..6u32 {
        assert!(
            node0
                .committed_log
                .iter()
                .any(|c| c.vertex.source == PartyId(p) && c.block_tx_count > 0),
            "party {p}'s transactions never ordered"
        );
    }
}

/// A vertex that misses the strong edges of the next round is picked up by
/// a weak edge two or three rounds on — with or without garbage collection
/// to clear the candidate set. Twelve parties over the five regions, two
/// clans, nothing collected: every committed vertex is swept in by a leader
/// at most five rounds above it, and every proposal up to round 55 is in
/// every log. (Candidates that need no citation used to queue ahead of the
/// ones that do, `f` a round; an orphan then waited dozens of rounds.)
#[test]
fn late_vertex_is_cited_within_a_few_rounds_without_gc() {
    let clans = vec![(0..12).step_by(2).collect(), (1..12).step_by(2).collect()];
    let mut spec = TribeSpec::multi_clan(12, clans);
    spec.max_round = 60;
    spec.gc_depth = None;
    let mut sim = spec.build();
    sim.run_until(Micros::from_secs(120));
    let all: Vec<u32> = (0..12).collect();
    assert_prefix_consistent(&sim, &all);
    for &i in &all {
        let log = &sim.node(PartyId(i)).committed_log;
        for c in log {
            let lag = c.leader_round.0 - c.vertex.round.0;
            assert!(lag <= 5, "node {i}: {:?} waited {lag} rounds", c.vertex);
        }
        for round in 0..=55 {
            let committed = log.iter().filter(|c| c.vertex.round == Round(round));
            assert_eq!(committed.count(), 12, "node {i}, round {round}");
        }
    }
}

#[test]
fn execution_is_consistent_within_clans() {
    let mut spec = TribeSpec::single_clan(7, vec![0, 2, 4]);
    spec.execute = true;
    let mut sim = spec.build();
    sim.run_until(Micros::from_secs(60));
    // All clan members execute the same sequence to the same root.
    let roots: Vec<_> = [0u32, 2, 4]
        .iter()
        .map(|&i| {
            let e = sim
                .node(PartyId(i))
                .executor
                .as_ref()
                .expect("clan executes");
            (e.executed_txs(), e.state_root())
        })
        .collect();
    assert!(roots[0].0 > 0, "clan executed transactions");
    // Compare at the shortest executed prefix via receipts.
    let min_len = [0u32, 2, 4]
        .iter()
        .map(|&i| {
            sim.node(PartyId(i))
                .executor
                .as_ref()
                .unwrap()
                .receipts()
                .len()
        })
        .min()
        .unwrap();
    assert!(min_len > 0);
    // Compare everything except the node-local execution timestamps.
    let essence = |i: u32| -> Vec<_> {
        sim.node(PartyId(i)).executor.as_ref().unwrap().receipts()[..min_len]
            .iter()
            .map(|r| (r.sequence, r.vertex, r.tx_count, r.state_root))
            .collect()
    };
    let reference = essence(0);
    for &i in &[2u32, 4] {
        assert_eq!(essence(i), reference, "node {i} diverged in execution");
    }
    // Non-clan members do not execute.
    assert!(
        sim.node(PartyId(1)).executor.is_none()
            || sim
                .node(PartyId(1))
                .executor
                .as_ref()
                .unwrap()
                .receipts()
                .is_empty()
    );
}

#[test]
fn crashed_leader_is_skipped_via_timeouts() {
    // Party 0 leads rounds 0, 4, 8 (n = 4, round-robin). Crash it from the
    // start: the tribe must form timeout certificates and keep committing.
    let mut spec = TribeSpec::whole_tribe(4);
    spec.crash = vec![(0, Micros::ZERO)];
    spec.max_round = 6;
    let mut sim = spec.build();
    sim.run_until(Micros::from_secs(120));
    let live: Vec<u32> = (1..4).collect();
    assert_prefix_consistent(&sim, &live);
    for &i in &live {
        let node = sim.node(PartyId(i));
        assert!(
            node.round() >= Round(6),
            "node {i} stuck at {} despite timeouts",
            node.round()
        );
        assert!(node.last_committed().is_some(), "node {i} never committed");
        // The crashed party's vertices never appear.
        assert!(order_of(node).iter().all(|v| v.source != PartyId(0)));
    }
}

#[test]
fn mid_run_leader_crash_preserves_agreement() {
    let mut spec = TribeSpec::whole_tribe(4);
    spec.crash = vec![(1, Micros::from_millis(400))];
    spec.max_round = 10;
    let mut sim = spec.build();
    sim.run_until(Micros::from_secs(120));
    let live: Vec<u32> = vec![0, 2, 3];
    assert_prefix_consistent(&sim, &live);
    for &i in &live {
        assert!(
            sim.node(PartyId(i)).round() >= Round(10),
            "node {i} stuck at {}",
            sim.node(PartyId(i)).round()
        );
    }
}

#[test]
fn commit_latency_is_a_few_deltas() {
    // Benign geo-distributed run: the first leader commit should land within
    // a handful of WAN delays (3δ ≈ 0.45 s at the worst one-way ~150 ms),
    // certainly far below the 1.5 s timeout (no timeout path taken).
    let spec = TribeSpec::whole_tribe(4);
    let mut sim = spec.build();
    sim.run_until(Micros::from_secs(60));
    let node = sim.node(PartyId(0));
    let first_commit = node.committed_log.first().expect("committed");
    assert!(
        first_commit.committed_at < Micros::from_millis(1_200),
        "first commit too slow: {}",
        first_commit.committed_at
    );
}

#[test]
fn single_clan_reduces_total_traffic() {
    // Same tribe, same workload; the single-clan variant must move far fewer
    // bytes because blocks reach 3 parties instead of 7 and only 3 parties
    // propose non-empty blocks (paper's core claim).
    let txs = 400;
    let mut baseline = TribeSpec::whole_tribe(7);
    baseline.txs_per_proposal = txs;
    let mut clan = TribeSpec::single_clan(7, vec![0, 2, 4]);
    clan.txs_per_proposal = txs;
    let mut sim_a = baseline.build();
    sim_a.run_until(Micros::from_secs(60));
    let mut sim_b = clan.build();
    sim_b.run_until(Micros::from_secs(60));
    let a = sim_a.stats().total_bytes();
    let b = sim_b.stats().total_bytes();
    assert!(
        (b as f64) < 0.45 * a as f64,
        "single-clan should cut traffic sharply: baseline={a} clan={b}"
    );
}

#[test]
fn nodes_garbage_collect() {
    let mut spec = TribeSpec::whole_tribe(4);
    spec.max_round = 30;
    let mut sim = spec.build();
    sim.run_until(Micros::from_secs(120));
    // gc_depth defaults to 16; with ~30 committed rounds the horizon must
    // have moved off genesis.
    for i in 0..4u32 {
        let node = sim.node(PartyId(i));
        assert!(node.last_committed().unwrap() >= Round(20));
    }
}
