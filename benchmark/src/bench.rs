//! One workload in one process: the result types, and the untraced pass
//! that yields the end-to-end metrics (the traced pass is in `traced`).

use crate::json::Json;
use crate::run::{run_rep, setup_samples, Rep, SimNumbers};
use crate::spans::Spans;
use crate::spec::{MetricDef, Spec};
use crate::stats::{median, quartiles};
use crate::workload::Workload;
use clanbft_telemetry::Telemetry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed repetitions never fall below this, however slow the host.
const MIN_TIMED_REPS: usize = 3;
/// Set-up samples per run: set-up takes well under a millisecond, so its
/// median needs many.
const SETUP_REPS: usize = 50;

pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the timed repetitions measure for.
    pub seconds: f64,
    /// `false`: end-to-end metrics, everything untraced. `true`: per-layer
    /// metrics from the traced pass and the layer drivers.
    pub trace: bool,
    pub quick: bool,
    /// Where result details, traces and the scratch tree go.
    pub out_dir: PathBuf,
}

/// One measured metric: the reported value plus what `compare` needs to
/// judge its noise.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
    pub samples: usize,
    pub q1: f64,
    pub q3: f64,
}

/// The result of one pass over one workload.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Measured>,
    pub violations: Vec<String>,
}

impl Outcome {
    /// `detailed` adds what `compare` needs to judge a metric's noise.
    fn metrics_json(&self, detailed: bool) -> Json {
        let metric = |m: &Measured| {
            let mut fields = vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::Str(m.unit.clone())),
            ];
            if detailed {
                fields.push(("samples", Json::Num(m.samples as f64)));
                fields.push(("q1", Json::Num(m.q1)));
                fields.push(("q3", Json::Num(m.q3)));
            }
            Json::obj(fields)
        };
        Json::obj(self.metrics.iter().map(|(k, m)| (k.clone(), metric(m))))
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(false)),
        ])
        .render()
    }

    /// The detailed form `results.json` and `compare` use.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "violations",
                Json::Arr(self.violations.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", self.metrics_json(true)),
        ])
    }
}

/// Values as the passes produce them, before units are attached.
#[derive(Default)]
pub(crate) struct Values(BTreeMap<&'static str, (f64, usize, f64, f64)>);

impl Values {
    /// A single reading (no spread of its own).
    pub(crate) fn one(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, (value, 1, value, value));
    }

    /// The median of repeated readings, with their quartiles.
    fn many(&mut self, name: &'static str, samples: &[f64]) {
        let (q1, q3) = quartiles(samples);
        self.0
            .insert(name, (median(samples), samples.len(), q1, q3));
    }

    /// Attaches units from `defs`, and checks that the pass produced
    /// exactly the metrics `BENCHMARK.json` declares, each finite.
    pub(crate) fn finish(self, defs: &[MetricDef]) -> Result<BTreeMap<String, Measured>, String> {
        let mut out = BTreeMap::new();
        for d in defs {
            let &(value, samples, q1, q3) = self
                .0
                .get(d.name.as_str())
                .ok_or_else(|| format!("metric {} declared but not measured", d.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite ({value})", d.name));
            }
            out.insert(
                d.name.clone(),
                Measured {
                    value,
                    unit: d.unit.clone(),
                    samples,
                    q1,
                    q3,
                },
            );
        }
        match self.0.keys().find(|k| !out.contains_key(**k)) {
            Some(extra) => Err(format!("metric {extra} measured but not declared")),
            None => Ok(out),
        }
    }
}

/// Runs the pass `opts` asks for and prints every metric by name.
pub fn run(opts: &Options, spec: &Spec) -> Result<Outcome, String> {
    let mut w = Workload::named(&opts.workload, opts.quick)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    if let Some(r) = &mut w.restart {
        // Only the traced pass pays for the device: see `Restart::flush`.
        r.flush = opts.trace;
    }
    let tmp = opts
        .out_dir
        .join("tmp")
        .join(format!("{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let result = if opts.trace {
        crate::traced::per_layer(&w, opts, spec, &tmp)
    } else {
        end_to_end(&w, opts, spec, &tmp)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let outcome = result?;
    print_outcome(
        &outcome,
        if opts.trace {
            &spec.per_layer
        } else {
            &spec.end_to_end
        },
    );
    Ok(outcome)
}

fn print_outcome(o: &Outcome, defs: &[MetricDef]) {
    for d in defs {
        let m = &o.metrics[&d.name];
        let dir = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let bound = d
            .bound
            .map_or(String::new(), |b| format!("  bound {:.1}%", b * 100.0));
        let spread = if m.samples > 1 {
            format!("  n={} q1={:.6} q3={:.6}", m.samples, m.q1, m.q3)
        } else {
            String::new()
        };
        println!(
            "{:<26} {:<34} {:>16.6} {:<6} ({dir} is better{bound}){spread}",
            o.workload, d.name, m.value, m.unit
        );
    }
    for v in &o.violations {
        println!("{}: AUDIT FAILED: {v}", o.workload);
    }
}

pub(crate) fn outcome(
    w: &Workload,
    numbers: &SimNumbers,
    violations: Vec<String>,
    metrics: BTreeMap<String, Measured>,
) -> Outcome {
    let correct = violations.is_empty();
    Outcome {
        workload: w.name.to_string(),
        correct,
        attempted: numbers.fails.attempted.max(1),
        // Any audit failure voids the whole run.
        failed: if correct {
            numbers.fails.failed()
        } else {
            numbers.fails.attempted.max(1)
        },
        metrics,
        violations,
    }
}

/// Same seed ⇒ bit-identical simulation, whatever instruments are on.
/// Audit findings the first repetition already reported are not repeated.
pub(crate) fn check_same(
    label: &str,
    reference: &SimNumbers,
    rep: &Rep,
    violations: &mut Vec<String>,
) {
    if rep.numbers != *reference {
        violations.push(format!(
            "determinism: {label} changed the simulation ({:?} vs {:?})",
            rep.numbers, reference
        ));
    }
    for v in &rep.violations {
        if !violations.contains(v) {
            violations.push(format!("{label}: {v}"));
        }
    }
}

fn end_to_end(w: &Workload, opts: &Options, spec: &Spec, tmp: &Path) -> Result<Outcome, String> {
    let mut spans = Spans::off();
    let setups = setup_samples(w, opts.seed, if opts.quick { 3 } else { SETUP_REPS });

    // The first repetition warms caches and lazy statics, yields the
    // simulated numbers and is not timed — except under `--quick`, whose
    // single repetition has to serve as both.
    let first = run_rep(
        w,
        opts.seed,
        &tmp.join("rep-0"),
        Telemetry::null(),
        &mut spans,
    );
    let numbers = first.numbers.clone();
    let mut violations = first.violations.clone();
    let (mut walls, mut cpus) = if opts.quick {
        (vec![first.wall_s], vec![first.cpu_s])
    } else {
        (Vec::new(), Vec::new())
    };
    drop(first);

    let started = Instant::now();
    while !opts.quick
        && (walls.len() < MIN_TIMED_REPS || started.elapsed().as_secs_f64() < opts.seconds)
    {
        let k = walls.len() + 1;
        let rep = run_rep(
            w,
            opts.seed,
            &tmp.join(format!("rep-{k}")),
            Telemetry::null(),
            &mut spans,
        );
        check_same(&format!("repetition {k}"), &numbers, &rep, &mut violations);
        walls.push(rep.wall_s);
        cpus.push(rep.cpu_s);
    }
    // After the timed repetitions, before anything else allocates.
    let rss_mb = peak_rss_mb()?;

    println!(
        "{}: seed {}  {} timed repetitions, median wall {:.3} s  latency samples: {} proposals carrying {} txs, so tail = p{}  generator lateness 0 us (arrivals are scheduled in simulated time)",
        w.name,
        opts.seed,
        walls.len(),
        median(&walls),
        numbers.window_proposals,
        numbers.window_txs,
        numbers.tail_quantile * 100.0
    );
    println!(
        "{}: offered {}  rejected {}  uncommitted {}  over-limit {}  (slowest commit {:.0} ms, limit {})",
        w.name,
        numbers.fails.attempted,
        numbers.fails.rejected,
        numbers.fails.uncommitted,
        numbers.fails.over_limit,
        numbers.commit_max_ms,
        w.latency_limit
            .map_or("none".to_string(), |l| format!("{:.0} ms", l.as_millis_f64()))
    );

    let correct = violations.is_empty();
    let mut v = Values::default();
    v.one("sim_tps", numbers.tps);
    v.one("sim_commit_p50_ms", numbers.commit_p50_ms);
    v.one("sim_commit_tail_ms", numbers.commit_tail_ms);
    v.one("sim_bytes_per_tx", numbers.bytes_per_tx);
    v.one("sim_max_commit_gap_ms", numbers.max_commit_gap_ms);
    v.many("host_cpu_s", &cpus);
    v.one("host_peak_rss_mb", rss_mb);
    v.many("setup_s", &setups);
    v.one(
        "ok_share",
        if correct {
            1.0 - numbers.fails.fail_share()
        } else {
            0.0
        },
    );
    Ok(outcome(
        w,
        &numbers,
        violations,
        v.finish(&spec.end_to_end)?,
    ))
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_must_match_the_declared_metrics_exactly() {
        let defs = vec![MetricDef {
            name: "a".to_string(),
            unit: "ms".to_string(),
            higher_is_better: false,
            bound: Some(0.1),
        }];
        let mut v = Values::default();
        v.many("a", &[3.0, 1.0, 2.0]);
        let m = v.finish(&defs).unwrap();
        assert_eq!(m["a"].value, 2.0);
        assert_eq!((m["a"].samples, m["a"].q1, m["a"].q3), (3, 1.0, 3.0));
        assert_eq!(m["a"].unit, "ms");

        assert!(Values::default()
            .finish(&defs)
            .unwrap_err()
            .contains("not measured"));
        let mut v = Values::default();
        v.one("a", 1.0);
        v.one("b", 1.0);
        assert!(v.finish(&defs).unwrap_err().contains("not declared"));
        let mut v = Values::default();
        v.one("a", f64::NAN);
        assert!(v.finish(&defs).unwrap_err().contains("not finite"));
    }
}
