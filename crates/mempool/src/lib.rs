//! Client-facing transaction ingress for the clanbft stack (zero external
//! deps).
//!
//! Everything upstream of consensus used to be synthetic: proposers
//! invented `txs_per_proposal` transactions out of thin air at each
//! proposal. This crate replaces that with a real ingress path the paper's
//! throughput story can be measured against:
//!
//! * [`pool`] — the bounded [`Mempool`]: at-most-once, gap-free admission
//!   keyed by per-client sequence numbers, three priority [`Lane`]s, and
//!   hard caps on queued transactions, queued bytes and client ids —
//!   every bound rejects with a `mempool.rejected.*` counter instead of
//!   growing (backpressure, never OOM); a lane queues runs ([`PendingTx`]).
//! * [`sizer`] — the feedback-driven [`BatchSizer`]: proposals pull
//!   whatever is queued (never waiting to fill a batch) under an adaptive
//!   cap that grows when proposals drain it (deep queue → throughput bias)
//!   and shrinks when they under-fill it (shallow queue → latency bias).
//! * [`loadgen`] — [`WorkloadSpec`] and the per-proposer
//!   [`ClientIngress`] driving it all: synthetic (the historical model),
//!   open-loop (fixed rate, Zipf-skewed millions of clients — exercises
//!   backpressure) and closed-loop (fixed outstanding per client,
//!   resubmitting on commit — every admitted transaction must commit
//!   exactly once).
//!
//! The consensus node drives the ingress with four calls per proposal
//! cycle: `poll` (advance arrivals), `pull` (sizer-chosen drain),
//! `note_proposed` (bind the pull to its vertex) and `on_committed`
//! (closed-loop commit feedback). [`plan_batches`] turns a pull's runs
//! into `TxBatch`-shaped plans grouped by arrival stamp.

#![forbid(unsafe_code)]

pub mod loadgen;
pub mod pool;
pub mod sizer;

pub use loadgen::{plan_batches, BatchPlan, ClientIngress, Workload, WorkloadSpec, ZipfGen};
pub use pool::{
    AdmitError, Lane, Mempool, MempoolConfig, MempoolStats, PendingTx, Submission, LANES,
};
pub use sizer::{BatchSizer, SizerConfig};

/// A simulated client: a dense node-local index (two proposers' client 7 are
/// different clients) into the pool's sequence table, below `max_clients`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ClientId(pub u64);
