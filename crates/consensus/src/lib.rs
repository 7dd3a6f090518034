//! Clan-based DAG BFT SMR — the paper's primary contribution.
//!
//! One protocol implementation, [`node::SailfishNode`], covers all three
//! evaluated systems through its [`ClanTopology`] parameter, exactly the way
//! the paper derives its protocols by modifying Sailfish:
//!
//! * **Sailfish (baseline)** — topology = whole tribe: every party proposes
//!   blocks, full blocks reach everybody, the merged RBC degenerates to the
//!   standard 2-round signed RBC.
//! * **Single-clan Sailfish** — one elected clan: only clan members propose
//!   non-empty blocks (everyone still proposes vertices), blocks flow only
//!   to the clan via tribe-assisted RBC merged with the vertex RBC.
//! * **Multi-clan Sailfish** — the tribe partitioned into clans: every party
//!   proposes, each block flows only within the proposer's clan.
//!
//! The Sailfish chassis implemented here: one leader per round (round-robin
//! schedule); parties vote upon RBC-delivering the round leader's vertex;
//! `2f+1` votes commit it directly at `1 RBC + δ = 3δ`; skipped leaders
//! commit indirectly through strong paths ([`clanbft_dag::order`]); round
//! `r+1` starts once `2f+1` round-`r` vertices (including the leader's, or
//! a timeout certificate) are delivered. Timeout/no-vote certificates
//! justify vertices that omit the leader edge (paper Fig. 4).
//!
//! [`ClanTopology`]: clanbft_rbc::ClanTopology

pub mod config;
pub mod execution;
pub mod messages;
pub mod node;
pub mod payload;
pub mod recovery;
pub mod schedule;
pub mod trackers;
mod transfer;

pub use config::NodeConfig;
pub use execution::{ExecutionReceipt, Executor};
pub use messages::ConsensusMsg;
pub use node::{CommittedVertex, SailfishNode};
pub use payload::{MergedPayload, SharedVertex};
pub use schedule::LeaderSchedule;
