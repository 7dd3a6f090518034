//! Folding the profiler's scope tree per crate and reconciling it with the
//! benchmark's own `run_until` span.

use clanbft_profiler::Report;
use std::collections::BTreeMap;

/// The crate a profiler scope's time belongs to. Scope names predate the
/// crate split in two places: the simulator's run loop scopes as `sim.*`
/// but lives in `simnet`, and the codec scopes live in `types`.
pub fn crate_of(scope: &str) -> &'static str {
    match scope {
        "sim.run" | "sim.timer" | "sim.restart" => "simnet",
        s if s.starts_with("sim.") => "sim",
        s if s.starts_with("codec.") => "types",
        s if s.starts_with("rbc.") => "rbc",
        s if s.starts_with("consensus.") => "consensus",
        s if s.starts_with("dag.") => "dag",
        s if s.starts_with("crypto.") => "crypto",
        s if s.starts_with("mempool.") => "mempool",
        s if s.starts_with("storage.") => "storage",
        _ => "other",
    }
}

/// Self time per crate over the scopes nested under the run loop.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Fold {
    /// Crate → self milliseconds, scopes under `sim.run` only.
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl Fold {
    pub fn of(report: &Report) -> Fold {
        let mut fold = Fold::default();
        for s in &report.scopes {
            if s.path == "sim.run" || s.path.starts_with("sim.run;") {
                *fold.self_ms.entry(crate_of(&s.name)).or_insert(0.0) += s.self_ns as f64 / 1e6;
            }
        }
        fold
    }

    pub fn crate_ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of the per-crate self times.
    pub fn sum_ms(&self) -> f64 {
        self.self_ms.values().sum()
    }

    /// Relative gap between the per-crate sum and `span_ms`, the
    /// benchmark's own span around `run_until`. Self times are additive by
    /// construction, so this measures only what the span holds outside the
    /// `sim.run` scope plus the profiler's tick calibration error.
    pub fn residual(&self, span_ms: f64) -> f64 {
        if span_ms <= 0.0 {
            return f64::INFINITY;
        }
        (self.sum_ms() - span_ms).abs() / span_ms
    }
}

/// `(calls, total nanoseconds)` of every scope with leaf name `name`,
/// summed over the paths it appears under.
pub fn scope_totals(report: &Report, name: &str) -> (u64, u64) {
    report
        .scopes
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(c, t), s| (c + s.calls, t + s.total_ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_profiler::ScopeStat;

    fn stat(path: &str, calls: u64, total_ns: u64, self_ns: u64) -> ScopeStat {
        ScopeStat {
            path: path.to_string(),
            name: path.rsplit(';').next().unwrap().to_string(),
            depth: path.matches(';').count(),
            calls,
            total_ns,
            self_ns,
            alloc_count: 0,
            alloc_bytes: 0,
            peak_bytes: 0,
        }
    }

    fn report() -> Report {
        Report {
            scopes: vec![
                stat("sim.run", 1, 100_000_000, 50_000_000),
                stat("sim.run;rbc.handle", 10, 40_000_000, 30_000_000),
                stat("sim.run;rbc.handle;crypto.sign", 5, 6_000_000, 6_000_000),
                stat(
                    "sim.run;rbc.handle;codec.block_digest",
                    5,
                    4_000_000,
                    4_000_000,
                ),
                stat("sim.run;sim.timer", 3, 10_000_000, 2_000_000),
                stat(
                    "sim.run;sim.timer;consensus.timeout",
                    3,
                    8_000_000,
                    8_000_000,
                ),
                stat("sim.collect_metrics", 1, 9_000_000, 9_000_000),
            ],
        }
    }

    #[test]
    fn scopes_fold_to_their_crates() {
        assert_eq!(crate_of("sim.run"), "simnet");
        assert_eq!(crate_of("sim.collect_metrics"), "sim");
        assert_eq!(crate_of("codec.block_encode"), "types");
        assert_eq!(crate_of("rbc.retry"), "rbc");
        assert_eq!(crate_of("mystery"), "other");
    }

    #[test]
    fn self_times_under_the_run_loop_add_back_up_to_it() {
        let fold = Fold::of(&report());
        assert_eq!(fold.crate_ms("simnet"), 52.0);
        assert_eq!(fold.crate_ms("rbc"), 30.0);
        assert_eq!(fold.crate_ms("crypto"), 6.0);
        assert_eq!(fold.crate_ms("types"), 4.0);
        assert_eq!(fold.crate_ms("consensus"), 8.0);
        // `sim.collect_metrics` runs outside the loop and is not folded.
        assert_eq!(fold.crate_ms("sim"), 0.0);
        assert_eq!(fold.sum_ms(), 100.0);
        assert_eq!(fold.residual(100.0), 0.0);
        assert!((fold.residual(98.0) - 2.0 / 98.0).abs() < 1e-12);
    }

    #[test]
    fn scope_totals_sum_over_paths() {
        let mut r = report();
        r.scopes.push(stat(
            "sim.run;sim.timer;crypto.sign",
            2,
            1_000_000,
            1_000_000,
        ));
        assert_eq!(scope_totals(&r, "crypto.sign"), (7, 7_000_000));
        assert_eq!(scope_totals(&r, "absent"), (0, 0));
    }
}
