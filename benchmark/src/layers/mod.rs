//! Per-layer drivers: loops that time calls into one crate's public
//! functions with fixed iteration counts and the shape of the workload
//! being traced. Layer = crate name; every metric is `<crate>.<what>`.

pub mod committee;
pub mod crypto;
pub mod dag;
pub mod instruments;
pub mod mempool;
pub mod rbc;
pub mod simnet;
pub mod storage;
pub mod types;

use crate::spans::Spans;
use crate::stats::median;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Metric name → value, as the drivers fill it.
pub type Out = BTreeMap<&'static str, f64>;

/// What a driver needs to know about the run it belongs to.
pub struct Env<'a> {
    pub w: &'a Workload,
    pub seed: u64,
    /// `--quick`: a tenth of the iterations.
    pub quick: bool,
    /// Scratch directory the storage driver may create files under.
    pub tmp: &'a Path,
}

impl Env<'_> {
    /// `full` iterations, or a tenth of them under `--quick`.
    pub fn iters(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }
}

/// Median over `batches` batches of the mean nanoseconds per call within a
/// batch of `iters` calls — a batch is long enough for the clock to
/// resolve, the median drops batches a scheduler tick landed in.
pub fn ns_per_call(batches: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Runs the drivers that need nothing from the traced pass, each inside
/// its own span.
pub fn run_drivers(env: &Env<'_>, spans: &mut Spans) -> Out {
    let mut out = Out::new();
    spans.time("driver.crypto", |_| crypto::run(env, &mut out));
    spans.time("driver.types", |_| types::run(env, &mut out));
    spans.time("driver.dag", |_| dag::run(env, &mut out));
    spans.time("driver.rbc", |_| rbc::run(env, &mut out));
    spans.time("driver.mempool", |_| mempool::run(env, &mut out));
    spans.time("driver.storage", |_| storage::run(env, &mut out));
    spans.time("driver.simnet", |_| simnet::run(env, &mut out));
    spans.time("driver.committee", |_| committee::run(env, &mut out));
    out
}
