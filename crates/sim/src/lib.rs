//! Experiment harness for the clanbft workspace.
//!
//! Glues the layers together the way the paper's evaluation does: a tribe of
//! [`SailfishNode`]s placed across the five GCP regions on the discrete-event
//! simulator, clan election via the committee machinery, the 512-byte
//! synthetic workload, and throughput/latency metrics defined exactly as in
//! §7 (throughput = committed tx/s; latency = creation → commit at *all*
//! non-faulty nodes).
//!
//! [`SailfishNode`]: clanbft_consensus::SailfishNode

pub mod experiment;
pub mod metrics;
pub mod trace;
pub mod tribe;

pub use experiment::{ExperimentSpec, Proto};
pub use metrics::{collect_metrics, RunMetrics, BYTE_CLASSES};
pub use trace::{export_trace, meta_line, write_trace};
pub use tribe::{build_tribe, BuiltTribe, TribeNode, TribeSpec};
