//! Deterministic discrete-event network and host simulator.
//!
//! This crate replaces the paper's GCP testbed (see `DESIGN.md`,
//! substitutions 1, 2 and 4). The protocols under test are real state
//! machines exchanging real messages; only three things are simulated:
//!
//! 1. **The wire** — one-way propagation delays taken from the paper's own
//!    Table 1 (GCP inter-region pings), per-node uplink serialization with a
//!    fan-out-dependent efficiency curve ([`bandwidth`]), plus an optional
//!    pre-GST adversary ([`net::SimConfig::gst`]).
//! 2. **The host CPU** — each node is a single-threaded message processor;
//!    handlers charge simulated CPU time from a calibrated [`cost`] model
//!    (BLS-grade crypto, storage reads/writes), which is what produces the
//!    paper's latency growth with `n` and the queueing collapse past
//!    saturation.
//! 3. **Faults** — crash times and temporary link partitions are injected
//!    from the config; *Byzantine* behaviour is expressed by running a
//!    different [`Protocol`] implementation on the corrupted node.
//!
//! [`Simulator`] is the one runtime: it owns the virtual clock, the event
//! queue and the one applier of a handler's sends, timers and charges.

pub mod bandwidth;
pub mod cost;
pub mod event;
pub mod net;
pub mod protocol;
pub mod regions;

pub use bandwidth::BandwidthModel;
pub use cost::CostModel;
pub use net::{SimConfig, Simulator};
pub use protocol::{Ctx, Message, Protocol};
pub use regions::{LatencyMatrix, Region, REGIONS};
