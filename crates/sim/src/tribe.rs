//! Building a runnable tribe: topology, keys, placement, fan-out degrees,
//! workload assignment and fault injection.

use clanbft_adversary::{AdversaryNode, Attack};
use clanbft_committee::ClanAssignment;
use clanbft_consensus::{ConsensusMsg, NodeConfig, SailfishNode};
use clanbft_crypto::{Authenticator, Registry, Scheme};
use clanbft_mempool::WorkloadSpec;
use clanbft_rbc::ClanTopology;
use clanbft_simnet::bandwidth::BandwidthModel;
use clanbft_simnet::cost::CostModel;
use clanbft_simnet::net::{Partition, SimConfig, Simulator};
use clanbft_simnet::regions::LatencyMatrix;
use clanbft_telemetry::Telemetry;
use clanbft_types::{ClanId, Micros, PartyId, TribeParams};
use std::sync::Arc;

/// Full specification of one simulated tribe.
#[derive(Clone)]
pub struct TribeSpec {
    /// Tribe size.
    pub n: usize,
    /// Clan structure: `None` = whole tribe (baseline Sailfish); one entry =
    /// single-clan; several = multi-clan partition.
    pub clans: Option<Vec<Vec<PartyId>>>,
    /// Synthetic transactions per proposal (paper x-axis). Ignored when
    /// `workload` is set.
    pub txs_per_proposal: u32,
    /// Transaction size in bytes (512 in the paper).
    pub tx_bytes: u32,
    /// Client workload every proposer's ingress runs. `None` keeps the
    /// historical synthetic model parameterised by `txs_per_proposal`.
    pub workload: Option<WorkloadSpec>,
    /// Garbage-collect DAG/RBC state this many rounds behind the commit
    /// frontier (`None` = keep everything, as exactly-once audits need).
    pub gc_depth: Option<u64>,
    /// Stop proposing after this round.
    pub max_round: Option<u64>,
    /// Round timeout.
    pub timeout: Micros,
    /// Pull-retry deadline: how long an unanswered payload/meta pull waits
    /// before rotating to the next peer (see the RBC pull sub-protocol).
    pub pull_retry: Micros,
    /// RNG seed (keys, schedule, jitter).
    pub seed: u64,
    /// Host CPU cost model.
    pub cost: CostModel,
    /// Uplink bandwidth model.
    pub bandwidth: BandwidthModel,
    /// Crash faults: `(party, time)`.
    pub crashes: Vec<(PartyId, Micros)>,
    /// Restart schedule: `(party, time)`. Every restarted party must also
    /// appear in `crashes` (with an earlier time) and requires
    /// `storage_root` — a node cannot rejoin without its WAL.
    pub restarts: Vec<(PartyId, Micros)>,
    /// Root directory for per-node durable storage (`node-<i>/` under it).
    /// `None` runs every node memory-only.
    pub storage_root: Option<std::path::PathBuf>,
    /// Whether WAL appends fsync (logical-recovery tests may turn this off).
    pub fsync: bool,
    /// Checkpoint every this many committed leader rounds.
    pub checkpoint_interval: u64,
    /// Post-restart state-transfer window (rounds behind the local frontier).
    pub catchup_rounds: u64,
    /// Rounds per epoch for clan rotation (`None` = never rotate).
    pub epoch_length: Option<u64>,
    /// Liveness slack before a clan member is rotated out (see
    /// [`NodeConfig::rotation_miss_k`]).
    pub rotation_miss_k: u64,
    /// Byzantine faults: each listed party runs the honest node wrapped in
    /// the given [`Attack`] behaviour. Keep the count within `f` for the
    /// tribe (and within `f_c` per clan) or agreement guarantees lapse.
    pub byzantine: Vec<(PartyId, Attack)>,
    /// Temporary link cuts.
    pub partitions: Vec<Partition>,
    /// Global stabilization time (0 = synchronous from the start).
    pub gst: Micros,
    /// Maximum adversarial extra delay per message before GST.
    pub pre_gst_extra_max: Micros,
    /// Verify signature bytes for real (tests) or charge cost only (scale).
    pub verify_sigs: bool,
    /// Enable the execution layer.
    pub execute: bool,
    /// Place all nodes in one region (isolates CPU/bandwidth effects).
    pub single_region: bool,
    /// Telemetry sink shared by the network and every node (disabled by
    /// default; see `clanbft_telemetry`).
    pub telemetry: Telemetry,
    /// Optional online health monitor. When set, every node's telemetry is
    /// teed into a per-party probe (so gauge/counter/histogram samples
    /// arrive attributed) and the simulator's handle into an event-only
    /// observer — the detectors then watch the run live.
    pub monitor: Option<clanbft_monitor::HealthMonitor>,
}

impl TribeSpec {
    /// Evaluation defaults for a tribe of `n`.
    pub fn new(n: usize) -> TribeSpec {
        TribeSpec {
            n,
            clans: None,
            txs_per_proposal: 250,
            tx_bytes: 512,
            workload: None,
            gc_depth: Some(16),
            max_round: Some(10),
            timeout: Micros::from_secs(5),
            pull_retry: Micros::from_millis(500),
            seed: 7,
            cost: CostModel::default(),
            bandwidth: BandwidthModel::default(),
            crashes: Vec::new(),
            restarts: Vec::new(),
            storage_root: None,
            fsync: true,
            checkpoint_interval: 8,
            catchup_rounds: 8,
            epoch_length: None,
            rotation_miss_k: 4,
            byzantine: Vec::new(),
            partitions: Vec::new(),
            gst: Micros::ZERO,
            pre_gst_extra_max: Micros::ZERO,
            verify_sigs: false,
            execute: false,
            single_region: false,
            telemetry: Telemetry::null(),
            monitor: None,
        }
    }
}

/// The node type the tribe harness runs: a Sailfish node behind the
/// adversary interposer (a no-op for honest parties).
pub type TribeNode = AdversaryNode<ConsensusMsg, SailfishNode>;

/// A built, ready-to-run tribe.
pub struct BuiltTribe {
    /// The simulator holding every node.
    pub sim: Simulator<ConsensusMsg, TribeNode>,
    /// The clan topology used.
    pub topology: Arc<ClanTopology>,
    /// Parties that neither crash nor misbehave (metrics and agreement
    /// assertions are taken over these).
    pub honest: Vec<PartyId>,
}

/// Elects the paper's evaluation clans (region-balanced) and assembles the
/// topology for `spec`.
fn make_topology(spec: &TribeSpec) -> Arc<ClanTopology> {
    let tribe = TribeParams::new(spec.n);
    let topo = match &spec.clans {
        None => ClanTopology::whole_tribe(tribe),
        Some(clans) if clans.len() == 1 => ClanTopology::single_clan(tribe, clans[0].clone()),
        Some(clans) => ClanTopology::multi_clan(tribe, clans.clone()),
    };
    Arc::new(topo)
}

/// Region-balanced single-clan election matching the paper's setup.
pub fn elect_clan(n: usize, clan_size: usize, seed: u64) -> Vec<PartyId> {
    let latency = LatencyMatrix::evenly_distributed(n);
    let assignment =
        ClanAssignment::elect_region_balanced(n, clan_size, &latency.region_indices(), seed);
    assignment.members(ClanId(0)).to_vec()
}

/// Region-balanced multi-clan partition matching the paper's setup.
pub fn partition_clans(n: usize, q: usize, seed: u64) -> Vec<Vec<PartyId>> {
    let latency = LatencyMatrix::evenly_distributed(n);
    let assignment =
        ClanAssignment::partition_region_balanced(n, q, &latency.region_indices(), seed);
    (0..assignment.clan_count())
        .map(|c| assignment.members(ClanId(c as u16)).to_vec())
        .collect()
}

/// Builds the simulator for `spec`.
pub fn build_tribe(spec: &TribeSpec) -> BuiltTribe {
    let n = spec.n;
    let latency = if spec.single_region {
        LatencyMatrix::single_region(n)
    } else {
        LatencyMatrix::evenly_distributed(n)
    };
    let topology = make_topology(spec);

    // Bulk fan-out degree: how many peers a node streams blocks to per
    // round. Block proposers stream to their clan; everyone else only moves
    // small control messages, for which the degree barely matters — they
    // get the full-mesh degree as the conservative choice.
    let bulk_fanout: Vec<usize> = (0..n as u32)
        .map(|p| {
            let p = PartyId(p);
            let clan = topology.clan_for_sender(p);
            if clan.contains(p) {
                (clan.len() - 1).max(1)
            } else {
                (n - 1).max(1)
            }
        })
        .collect();

    let mut sim_cfg = SimConfig::benign(n, spec.seed);
    sim_cfg.latency = latency;
    sim_cfg.bandwidth = spec.bandwidth;
    sim_cfg.cost = spec.cost;
    sim_cfg.bulk_fanout = bulk_fanout;
    for &(p, at) in &spec.crashes {
        sim_cfg.crash_at[p.idx()] = Some(at);
    }
    assert!(
        spec.restarts.is_empty() || spec.storage_root.is_some(),
        "restarts require storage_root: a node cannot rejoin without its WAL"
    );
    for &(p, at) in &spec.restarts {
        sim_cfg.restart_at[p.idx()] = Some(at);
    }
    sim_cfg.partitions = spec.partitions.clone();
    sim_cfg.gst = spec.gst;
    sim_cfg.pre_gst_extra_max = spec.pre_gst_extra_max;
    sim_cfg.telemetry = match &spec.monitor {
        Some(m) => {
            m.expect_parties(n as u32);
            spec.telemetry.tee_with(m.observer())
        }
        None => spec.telemetry.clone(),
    };

    let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, spec.seed);
    let nodes: Vec<TribeNode> = keypairs
        .into_iter()
        .enumerate()
        .map(|(i, kp)| {
            let me = PartyId(i as u32);
            let auth = Arc::new(Authenticator::new(i, kp, Arc::clone(&registry)));
            let mut cfg = NodeConfig::new(me, Arc::clone(&topology));
            cfg.schedule_seed = spec.seed;
            cfg.cost = spec.cost;
            cfg.timeout = spec.timeout;
            cfg.pull_retry = spec.pull_retry;
            cfg.max_round = spec.max_round;
            cfg.txs_per_proposal = spec.txs_per_proposal;
            cfg.tx_bytes = spec.tx_bytes;
            cfg.workload = spec.workload;
            cfg.gc_depth = spec.gc_depth;
            cfg.verify_sigs = spec.verify_sigs;
            cfg.execute = spec.execute;
            cfg.telemetry = match &spec.monitor {
                Some(m) => spec.telemetry.tee_with(m.probe(me)),
                None => spec.telemetry.clone(),
            };
            if let Some(root) = &spec.storage_root {
                cfg.storage_dir = Some(root.join(format!("node-{i}")));
            }
            cfg.fsync = spec.fsync;
            cfg.checkpoint_interval = spec.checkpoint_interval;
            cfg.catchup_rounds = spec.catchup_rounds;
            cfg.epoch_length = spec.epoch_length;
            cfg.rotation_miss_k = spec.rotation_miss_k;
            let inner = SailfishNode::new(cfg, auth);
            match spec.byzantine.iter().find(|(p, _)| *p == me) {
                Some((_, attack)) => AdversaryNode::byzantine(inner, attack.instantiate()),
                None => AdversaryNode::honest(inner),
            }
        })
        .collect();

    let honest = (0..n as u32)
        .map(PartyId)
        .filter(|p| !spec.crashes.iter().any(|(c, _)| c == p))
        .filter(|p| !spec.byzantine.iter().any(|(b, _)| b == p))
        .collect();

    BuiltTribe {
        sim: Simulator::new(sim_cfg, nodes),
        topology,
        honest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_everyone_proposes() {
        let spec = TribeSpec::new(7);
        let built = build_tribe(&spec);
        assert_eq!(built.topology.clan_count(), 1);
        assert_eq!(built.topology.clan(0).len(), 7);
        assert_eq!(built.honest.len(), 7);
    }

    #[test]
    fn single_clan_restricts_proposers() {
        let clan = elect_clan(10, 5, 3);
        assert_eq!(clan.len(), 5);
        let mut spec = TribeSpec::new(10);
        spec.clans = Some(vec![clan.clone()]);
        let built = build_tribe(&spec);
        // Clan members stream blocks to 4 peers; outsiders keep full mesh.
        let fanout = &built.sim.config().bulk_fanout;
        for p in 0..10u32 {
            let expected = if clan.contains(&PartyId(p)) { 4 } else { 9 };
            assert_eq!(fanout[p as usize], expected, "party {p}");
        }
    }

    #[test]
    fn multi_clan_partition_covers() {
        let clans = partition_clans(12, 3, 9);
        assert_eq!(clans.len(), 3);
        let total: usize = clans.iter().map(Vec::len).sum();
        assert_eq!(total, 12);
        let mut spec = TribeSpec::new(12);
        spec.clans = Some(clans);
        let built = build_tribe(&spec);
        assert_eq!(built.topology.clan_count(), 3);
        // Everyone is in some clan, so everyone streams to its clan only.
        for k in built.sim.config().bulk_fanout.iter() {
            assert_eq!(*k, 3);
        }
    }

    #[test]
    fn clan_election_is_region_balanced() {
        let clan = elect_clan(50, 30, 1);
        let mut per_region = [0usize; 5];
        for p in &clan {
            per_region[p.idx() % 5] += 1;
        }
        assert_eq!(per_region, [6, 6, 6, 6, 6]);
    }

    #[test]
    fn crashes_excluded_from_honest() {
        let mut spec = TribeSpec::new(6);
        spec.crashes = vec![(PartyId(2), Micros::ZERO)];
        let built = build_tribe(&spec);
        assert_eq!(built.honest.len(), 5);
        assert!(!built.honest.contains(&PartyId(2)));
    }
}
