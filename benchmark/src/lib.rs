//! The repo benchmark as a library: the `clanbft-benchmark` binary is a
//! thin command line over it, and the smoke test reads its result files
//! through the same JSON and contract code. See `benchmark/README.md`.

pub mod bench;
pub mod compare;
pub mod json;
pub mod layers;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod traced;
pub mod tree;
pub mod workload;
