//! The repo benchmark. Three ways in:
//!
//! ```text
//! clanbft-benchmark --workload W --seed N --seconds S --trace 0|1 [--quick]
//! clanbft-benchmark [--seed N] [--quick]
//! clanbft-benchmark compare <a.json> <b.json> [--same-code]
//! ```
//!
//! The first is the driver contract: one workload, one pass, one process;
//! the last line of standard output is the result object. The second
//! sweeps every workload through both passes, each in a process of its
//! own, and writes `results.json`. See `benchmark/README.md`.

use clanbft_benchmark::bench::{self, Options};
use clanbft_benchmark::compare;
use clanbft_benchmark::json::Json;
use clanbft_benchmark::spec::Spec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Allocation counts per profiler scope (the `alloc.*` metrics) need the
/// counting wrapper installed in the final binary.
#[global_allocator]
static ALLOC: clanbft_profiler::CountingAlloc = clanbft_profiler::CountingAlloc;

const DEFAULT_SEED: u64 = 11;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        quick: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.to_string()),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {s}"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// Build outputs, result files, traces and the scratch tree all live under
/// the cargo target directory (`.bench_build` under the driver,
/// `target/benchmark` under `run.sh`), which `.gitignore` names.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target/benchmark"), PathBuf::from);
    target.join("results")
}

fn detail_path(dir: &Path, workload: &str, trace: bool) -> PathBuf {
    dir.join(format!(
        "{workload}.{}.json",
        if trace { "per_layer" } else { "end_to_end" }
    ))
}

/// One workload, one pass. Prints the contract line last.
fn single(args: &Args, workload: &str, spec: &Spec) -> Result<bool, String> {
    let opts = Options {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds.unwrap_or(spec.run_seconds),
        trace: args.trace,
        quick: args.quick,
        out_dir: out_dir(),
    };
    let outcome = bench::run(&opts, spec)?;
    let path = detail_path(&opts.out_dir, workload, opts.trace);
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, outcome.to_json().render() + "\n"))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{}", outcome.contract_line());
    Ok(outcome.correct)
}

/// Every workload through both passes, each in its own process (so peak
/// RSS and lazy set-up are per workload), then `results.json`.
fn sweep(args: &Args, spec: &Spec) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let dir = out_dir();
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for w in &spec.workloads {
        let mut passes = Vec::new();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if let Some(s) = args.seconds {
                cmd.args(["--seconds", &s.to_string()]);
            }
            if args.quick {
                cmd.arg("--quick");
            }
            // `status` waits for the child, so none outlives the sweep.
            let status = cmd.status().map_err(|e| format!("running {w}: {e}"))?;
            all_ok &= status.success();
            let path = detail_path(&dir, w, trace);
            let detail = std::fs::read_to_string(&path)
                .map_err(|e| format!("{w}: no result at {}: {e}", path.display()))
                .and_then(|t| Json::parse(&t))?;
            passes.push((if trace { "per_layer" } else { "end_to_end" }, detail));
        }
        workloads.push((w.clone(), Json::obj(passes)));
    }
    let results = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("quick", Json::Bool(args.quick)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = dir.join("results.json");
    std::fs::write(&path, results.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    // The paper's headline: what confining dissemination to a clan buys
    // over Sailfish at the same n. Outputs of an unvalidated cost model.
    let e2e = |w: &str, m: &str| {
        results
            .get("workloads")?
            .get(w)?
            .get("end_to_end")?
            .get("metrics")?
            .get(m)?
            .get("value")?
            .as_f64()
    };
    for m in ["sim_tps", "sim_commit_p50_ms", "sim_bytes_per_tx"] {
        if let (Some(c), Some(s)) = (e2e("clan50_sat", m), e2e("sailfish50_sat", m)) {
            println!(
                "derived: clan50_sat.{m} / sailfish50_sat.{m} = {:.4}",
                c / s
            );
        }
    }
    println!("results written to {}", path.display());
    Ok(all_ok)
}

fn compare_files(args: &[String], spec: &Spec) -> Result<bool, String> {
    let same_code = args.iter().any(|a| a == "--same-code");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [a, b] = files[..] else {
        return Err("usage: compare <a.json> <b.json> [--same-code]".to_string());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (report, ok) = compare::compare(&load(a)?, &load(b)?, spec, same_code);
    print!("{report}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare_files(&args[1..], &spec)
    } else {
        parse_args(&args).and_then(|a| match a.workload.clone() {
            Some(w) => single(&a, &w, &spec),
            None => sweep(&a, &spec),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("clanbft-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_s_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "clan50_sat",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("clan50_sat"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, Some(12.0), true, false)
        );
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.trace), (None, DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seconds", "nan"],
            &["--bogus"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
