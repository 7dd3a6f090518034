//! Perf smoke: the profiler's end-to-end checkout and the CI perf gate.
//!
//! ```text
//! cargo run --release -p clanbft-sim --example perf_smoke -- [out_dir] [--write-baseline]
//! ```
//!
//! Runs one pinned single-clan workload (n = 12, clan 6, 10 rounds,
//! seed 11, 200 txs/proposal) three ways — profiler disabled, timing-only
//! (`enable_timing_only`), and twice fully enabled — and asserts the
//! contract the instrumentation claims:
//!
//! 1. Profiling never changes the run: committed transactions and simulator
//!    event counts are identical across every mode.
//! 2. The profile is real: ≥ 8 distinct pipeline stages across ≥ 5
//!    instrumented subsystems, with allocation attribution (this binary
//!    installs [`clanbft_profiler::CountingAlloc`]); the timing-only run
//!    attributes none.
//! 3. What a same-seed run repeats exactly, it repeats: both full runs
//!    produce the same (path, calls, allocations, allocated bytes) vector.
//!    Times vary; the tree and what it allocated must not.
//! 4. Instrument overhead is *reported* — best of each mode against best,
//!    with each mode's spread — and never judged: this host slows by
//!    40–70 % for minutes at a time, and a 30 ms run cannot tell that from
//!    a regression. See DESIGN.md "Performance observability" for measured
//!    numbers; `benchmark/` judges host time, with alternating paired runs.
//!
//! Artifacts land in `out_dir` (default `target/perf-smoke`):
//! `profile_a.ndjson`, `profile_b.ndjson` (+ `.collapsed`), `summary.json`.
//! The CI gate then renders `profile_a.ndjson` with `clanbft-inspect
//! profile` and diffs a→b for its `verdict:` line.
//!
//! The committed baseline `crates/bench/BENCH_perf_baseline.json` pins the
//! deterministic facts exactly (committed txs, sim events, distinct
//! scopes). Its wall-time fields are a record, not a gate: wall time is
//! judged by `benchmark/` with alternating paired runs. Refresh it with
//! `--write-baseline` after an intentional change.

use clanbft_profiler as prof;
use clanbft_sim::{ExperimentSpec, Proto, RunMetrics};
use clanbft_telemetry::ndjson::{parse_line, Value};
use clanbft_telemetry::JsonObj;
use std::collections::BTreeSet;
use std::time::Instant;

#[global_allocator]
static ALLOC: prof::CountingAlloc = prof::CountingAlloc;

const N: usize = 12;
const CLAN: usize = 6;
const ROUNDS: u64 = 10;
const SEED: u64 = 11;
const TXS: u32 = 200;

fn baseline_path() -> String {
    format!(
        "{}/../bench/BENCH_perf_baseline.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn run_once() -> RunMetrics {
    let mut spec = ExperimentSpec::new(Proto::SingleClan { clan_size: CLAN }, N, TXS);
    spec.rounds = ROUNDS;
    spec.warmup_rounds = 2;
    spec.cooldown_rounds = 2;
    spec.seed = SEED;
    spec.run()
}

/// `(wall microseconds, metrics, report)` for one enabled run. Timing-only
/// mode skips allocation accounting — the cheapest enabled configuration.
fn run_profiled(timing_only: bool) -> (u64, RunMetrics, prof::Report) {
    prof::reset();
    if timing_only {
        prof::enable_timing_only();
    } else {
        prof::enable();
    }
    let t = Instant::now();
    let m = run_once();
    let wall = t.elapsed().as_micros() as u64;
    let report = prof::take_report();
    prof::disable();
    (wall, m, report)
}

/// `best..worst` of one mode's wall times, in microseconds.
fn spread(walls: &[u64]) -> String {
    let (lo, hi) = (walls.iter().min(), walls.iter().max());
    format!("{}..{}", lo.unwrap_or(&0), hi.unwrap_or(&0))
}

fn fail(msg: &str) -> ! {
    eprintln!("perf_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let out_dir = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "target/perf-smoke".to_string());
    std::fs::create_dir_all(&out_dir).unwrap_or_else(|e| fail(&format!("mkdir {out_dir}: {e}")));

    // Disabled runs: the first warms caches (page-ins, lazy statics), the
    // best of the rest is the overhead baseline. A run is ~30 ms, short
    // enough for one scheduling hiccup to be a two-digit percentage, so
    // every mode reports its best of several.
    prof::disable();
    prof::reset();
    let mut disabled_walls = Vec::new();
    let mut disabled_metrics = None;
    for i in 0..5 {
        let t = Instant::now();
        let m = run_once();
        if i > 0 {
            disabled_walls.push(t.elapsed().as_micros() as u64);
        }
        disabled_metrics = Some(m);
    }
    let disabled_wall = disabled_walls.iter().copied().min().unwrap_or(0);
    let disabled_metrics = disabled_metrics.expect("five runs completed");
    if !prof::take_report().scopes.is_empty() {
        fail("disabled profiler accumulated scope data");
    }

    let (first_timing_wall, timing_metrics, timing_report) = run_profiled(true);
    let mut timing_walls = vec![first_timing_wall];
    for _ in 0..2 {
        timing_walls.push(run_profiled(true).0);
    }
    let timing_wall = timing_walls.iter().copied().min().unwrap_or(0);
    let (wall_a, metrics_a, report_a) = run_profiled(false);
    let (wall_b, metrics_b, report_b) = run_profiled(false);
    let enabled_wall = wall_a.min(wall_b);
    if timing_report.scopes.iter().any(|s| s.alloc_count > 0) {
        fail("timing-only run attributed allocations");
    }

    // 1. Profiling must not perturb the simulation.
    for (label, m) in [
        ("timing-only", &timing_metrics),
        ("a", &metrics_a),
        ("b", &metrics_b),
    ] {
        if m.committed_txs != disabled_metrics.committed_txs {
            fail(&format!(
                "enabled run {label} committed {} txs, disabled committed {}",
                m.committed_txs, disabled_metrics.committed_txs
            ));
        }
        if m.sim_events != disabled_metrics.sim_events {
            fail(&format!(
                "enabled run {label} handled {} events, disabled handled {}",
                m.sim_events, disabled_metrics.sim_events
            ));
        }
    }

    // 2. Coverage: distinct stages and distinct instrumented subsystems.
    let names: BTreeSet<&str> = report_a.scopes.iter().map(|s| s.name.as_str()).collect();
    let subsystems: BTreeSet<&str> = names
        .iter()
        .map(|n| n.split('.').next().unwrap_or(n))
        .collect();
    if names.len() < 8 {
        fail(&format!(
            "only {} distinct stages profiled: {names:?}",
            names.len()
        ));
    }
    if subsystems.len() < 5 {
        fail(&format!(
            "only {} subsystems covered: {subsystems:?}",
            subsystems.len()
        ));
    }
    let total_allocs: u64 = report_a.scopes.iter().map(|s| s.alloc_count).sum();
    if total_allocs == 0 {
        fail("no allocations attributed despite the counting allocator");
    }

    // 3. Determinism of the tree: shape, calls and what each path
    // allocated.
    let exact = |r: &prof::Report| -> Vec<(String, u64, u64, u64)> {
        let row = |s: &prof::ScopeStat| (s.path.clone(), s.calls, s.alloc_count, s.alloc_bytes);
        r.scopes.iter().map(row).collect()
    };
    if let Some((a, b)) = exact(&report_a)
        .into_iter()
        .zip(exact(&report_b))
        .find(|(a, b)| a != b)
    {
        fail(&format!(
            "same-seed runs differ in (path, calls, allocations, bytes):\n a: {a:?}\n b: {b:?}"
        ));
    }
    if report_a.scopes.len() != report_b.scopes.len() {
        fail("same-seed runs profiled a different number of paths");
    }

    // 4. Overhead, best against best: reported with its spread, not judged.
    let pct = |wall: u64| {
        if disabled_wall > 0 {
            (wall as f64 - disabled_wall as f64) / disabled_wall as f64 * 100.0
        } else {
            0.0
        }
    };
    let overhead_timing_pct = pct(timing_wall);
    let overhead_pct = pct(enabled_wall);

    // Artifacts.
    let write = |name: &str, content: &str| {
        let path = format!("{out_dir}/{name}");
        std::fs::write(&path, content).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
    };
    write("profile_a.ndjson", &report_a.to_ndjson("perf_smoke/a"));
    write("profile_b.ndjson", &report_b.to_ndjson("perf_smoke/b"));
    write("profile_a.collapsed", &report_a.to_collapsed());
    let summary = JsonObj::new()
        .str("bench", "perf_smoke")
        .u64("n", N as u64)
        .u64("clan", CLAN as u64)
        .u64("rounds", ROUNDS)
        .u64("seed", SEED)
        .u64("committed_txs", disabled_metrics.committed_txs)
        .u64("sim_events", disabled_metrics.sim_events)
        .u64("distinct_scopes", names.len() as u64)
        .u64("subsystems", subsystems.len() as u64)
        .u64("disabled_wall_us", disabled_wall)
        .u64("timing_wall_us", timing_wall)
        .u64("enabled_wall_us", enabled_wall)
        .f64(
            "overhead_timing_pct",
            (overhead_timing_pct * 10.0).round() / 10.0,
        )
        .f64("overhead_pct", (overhead_pct * 10.0).round() / 10.0)
        .f64("sim_events_per_sec", metrics_a.sim_events_per_sec)
        .f64("wall_us_per_sim_sec", metrics_a.wall_us_per_sim_sec)
        .finish();
    write("summary.json", &format!("{summary}\n"));

    println!(
        "perf_smoke: {} committed txs, {} sim events",
        disabled_metrics.committed_txs, disabled_metrics.sim_events
    );
    println!(
        "perf_smoke: {} stages / {} subsystems, {} allocations attributed",
        names.len(),
        subsystems.len(),
        total_allocs
    );
    println!(
        "perf_smoke: wall disabled {disabled_wall} us ({}), timing-only {timing_wall} us \
         ({}; {overhead_timing_pct:+.1}%), full {enabled_wall} us ({}; {overhead_pct:+.1}%) \
         -- host time, not gated",
        spread(&disabled_walls),
        spread(&timing_walls),
        spread(&[wall_a, wall_b]),
    );
    println!("perf_smoke: artifacts -> {out_dir}");

    // Baseline gate.
    let bpath = baseline_path();
    if write_baseline {
        std::fs::write(&bpath, format!("{summary}\n"))
            .unwrap_or_else(|e| fail(&format!("write {bpath}: {e}")));
        println!("perf_smoke: baseline refreshed -> {bpath}");
        return;
    }
    match std::fs::read_to_string(&bpath) {
        Err(_) => println!("perf_smoke: no baseline at {bpath} (run --write-baseline to pin one)"),
        Ok(text) => {
            let line = text.lines().next().unwrap_or("");
            let base = parse_line(line).unwrap_or_else(|e| fail(&format!("parsing {bpath}: {e}")));
            let base_u64 = |key: &str| match base.get(key) {
                Some(Value::U64(v)) => *v,
                _ => fail(&format!("baseline missing {key:?}")),
            };
            // Deterministic facts must match exactly.
            for key in ["committed_txs", "sim_events", "distinct_scopes"] {
                let want = base_u64(key);
                let got = match key {
                    "committed_txs" => disabled_metrics.committed_txs,
                    "sim_events" => disabled_metrics.sim_events,
                    _ => names.len() as u64,
                };
                if got != want {
                    fail(&format!("{key}: baseline {want}, this run {got} (deterministic field; investigate before --write-baseline)"));
                }
            }
            println!(
                "perf_smoke: baseline OK (wall {enabled_wall} us, {} us recorded; not gated)",
                base_u64("enabled_wall_us")
            );
        }
    }
}
