//! Node configuration for the three protocol variants.

use clanbft_mempool::{MempoolConfig, SizerConfig, WorkloadSpec};
use clanbft_rbc::ClanTopology;
use clanbft_simnet::cost::CostModel;
use clanbft_telemetry::Telemetry;
use clanbft_types::{Micros, PartyId, TribeParams};
use std::sync::Arc;

/// Per-node configuration.
#[derive(Clone)]
pub struct NodeConfig {
    /// This party.
    pub me: PartyId,
    /// Tribe fault parameters.
    pub tribe: TribeParams,
    /// Clan topology: decides who receives whose blocks, and so who proposes
    /// non-empty ones — the parties inside their own dissemination clan
    /// (under single-clan the clan members, otherwise everybody).
    pub topology: Arc<ClanTopology>,
    /// Seed for the leader schedule rotation.
    pub schedule_seed: u64,
    /// CPU cost model (shared with the RBC engines).
    pub cost: CostModel,
    /// Round timeout before announcing a missing leader vertex.
    pub timeout: Micros,
    /// Stop proposing after this round (`None` = run forever). Lets finite
    /// tests run the simulator to quiescence.
    pub max_round: Option<u64>,
    /// Synthetic transactions per proposal (0 = propose empty blocks).
    /// Ignored when `workload` is set.
    pub txs_per_proposal: u32,
    /// Synthetic transaction size in bytes (the paper uses 512).
    pub tx_bytes: u32,
    /// Client workload driving this proposer's ingress. `None` falls back
    /// to the historical synthetic model parameterised by
    /// `txs_per_proposal`.
    pub workload: Option<WorkloadSpec>,
    /// Bounds of the proposer's mempool (ignored by non-proposers).
    pub mempool: MempoolConfig,
    /// Dynamic batch-sizer tuning (ignored by the synthetic workload).
    pub sizer: SizerConfig,
    /// Verify certificate/vote signature bytes for real (tests) or charge
    /// their cost only (large simulations).
    pub verify_sigs: bool,
    /// Run the execution layer on ordered blocks this party holds.
    pub execute: bool,
    /// Garbage-collect DAG/RBC state this many rounds behind the commit
    /// frontier (`None` = never).
    pub gc_depth: Option<u64>,
    /// Accept messages at most this many rounds ahead of the local round —
    /// the bound on pending buffers a Byzantine flooder can fill.
    pub round_window: u64,
    /// Base deadline for re-requesting a certified-but-missing payload; each
    /// retry backs off exponentially and rotates to fresh peers.
    pub pull_retry: Micros,
    /// Telemetry sink, shared with the RBC engine (disabled by default).
    pub telemetry: Telemetry,
    /// Durable storage directory for the WAL + checkpoints. `None` (the
    /// default) runs the node memory-only: it cannot survive a restart.
    pub storage_dir: Option<std::path::PathBuf>,
    /// Whether WAL appends fsync before the write is considered durable.
    /// Tests that only exercise logical recovery may turn this off.
    pub fsync: bool,
    /// Install a checkpoint (and rotate the WAL) every this many committed
    /// leader sequences.
    pub checkpoint_interval: u64,
    /// How far behind the tribe's observed round frontier this party may
    /// fall before requesting a peer state transfer after a restart.
    pub catchup_rounds: u64,
    /// Rounds per epoch for clan rotation (`None` = never rotate).
    pub epoch_length: Option<u64>,
    /// A clan member whose last committed vertex is more than this many
    /// rounds behind the epoch decision boundary is voted dead at the next
    /// rotation.
    pub rotation_miss_k: u64,
}

impl NodeConfig {
    /// A configuration with evaluation-friendly defaults; callers adjust
    /// the workload and fault knobs.
    pub fn new(me: PartyId, topology: Arc<ClanTopology>) -> NodeConfig {
        let tribe = topology.tribe();
        NodeConfig {
            me,
            tribe,
            topology,
            schedule_seed: 0,
            cost: CostModel::default(),
            timeout: Micros::from_millis(2_000),
            max_round: None,
            txs_per_proposal: 0,
            tx_bytes: 512,
            workload: None,
            mempool: MempoolConfig::default(),
            sizer: SizerConfig::default(),
            verify_sigs: true,
            execute: false,
            gc_depth: Some(16),
            round_window: 256,
            pull_retry: Micros::from_millis(500),
            telemetry: Telemetry::null(),
            storage_dir: None,
            fsync: true,
            checkpoint_interval: 8,
            catchup_rounds: 8,
            epoch_length: None,
            rotation_miss_k: 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let topo = Arc::new(ClanTopology::whole_tribe(TribeParams::new(4)));
        let cfg = NodeConfig::new(PartyId(2), topo);
        assert_eq!(cfg.me, PartyId(2));
        assert_eq!(cfg.tribe.n(), 4);
        assert!(cfg.verify_sigs);
        assert!(cfg.timeout > Micros::from_millis(500));
    }
}
