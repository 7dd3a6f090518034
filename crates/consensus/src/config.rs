//! Node configuration for the three protocol variants.

use clanbft_mempool::{Workload, WorkloadSpec};
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
    /// Client workload driving this proposer's ingress; clones share its
    /// generator (the default, no transactions, proposes empty blocks).
    pub workload: Workload,
    /// Verify certificate/vote signature bytes for real, or charge their
    /// cost only. A benign run's simulated numbers are the same either way;
    /// the host time it costs is measured in EXPERIMENTS.md, "What real
    /// signature verification costs".
    pub verify_sigs: bool,
    /// Run the execution layer on ordered blocks this party holds.
    pub execute: bool,
    /// Garbage-collect DAG/RBC state this many rounds behind the commit
    /// frontier (`None` = never).
    pub gc_depth: Option<u64>,
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
    /// Rounds per epoch for clan rotation (`None` = never rotate).
    pub epoch_length: Option<u64>,
}

impl NodeConfig {
    /// A configuration with evaluation-friendly defaults; callers adjust
    /// the workload and fault knobs.
    pub fn new(me: PartyId, topology: Arc<ClanTopology>) -> NodeConfig {
        NodeConfig {
            me,
            topology,
            schedule_seed: 0,
            cost: CostModel::default(),
            timeout: Micros::from_millis(2_000),
            max_round: None,
            workload: Workload::from(WorkloadSpec::Synthetic {
                txs_per_proposal: 0,
            }),
            verify_sigs: true,
            execute: false,
            gc_depth: Some(16),
            pull_retry: Micros::from_millis(500),
            telemetry: Telemetry::null(),
            storage_dir: None,
            fsync: true,
            checkpoint_interval: 8,
            epoch_length: None,
        }
    }

    /// Tribe fault parameters: the topology's.
    pub fn tribe(&self) -> TribeParams {
        self.topology.tribe()
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
        assert_eq!(cfg.tribe().n(), 4);
        assert!(cfg.verify_sigs);
        assert!(cfg.timeout > Micros::from_millis(500));
    }
}
