//! Core data types shared across the clanbft workspace.
//!
//! * [`ids`] — party, round and clan identifiers plus quorum arithmetic.
//! * [`time`] — the microsecond timestamp used by the simulator and metrics.
//! * [`codec`] — a small hand-rolled binary codec ([`Encode`]/[`Decode`]);
//!   it doubles as the ground truth for on-wire message sizes.
//! * [`transaction`] — transactions and the batch representation that lets
//!   multi-megabyte synthetic blocks stay O(1) in memory.
//! * [`block`] — the block of transactions disseminated to a clan.
//! * [`vertex`] — the DAG vertex (paper Fig. 4): round, source, block
//!   digest, strong/weak edges, optional no-vote and timeout certificates.
//! * [`certs`] — timeout and no-vote certificates.
//! * [`evidence`] — typed records of detected Byzantine conflicts
//!   (equivocating broadcasts, double votes).
//! * [`window`] — per-round rows addressed by index, pruned from the front.

pub mod block;
pub mod certs;
pub mod codec;
pub mod evidence;
pub mod ids;
pub mod time;
pub mod transaction;
pub mod vertex;
pub mod window;

pub use block::Block;
pub use certs::{NoVoteCert, TimeoutCert};
pub use codec::{Decode, DecodeError, Encode, Reader, Writer};
pub use evidence::Evidence;
pub use ids::{ClanId, PartyId, PartySet, Round, TribeParams};
pub use time::Micros;
pub use transaction::{TxBatch, TxId};
pub use vertex::{Vertex, VertexId, VertexRef};
pub use window::RoundWindow;
