//! `clanbft-inspect` — post-mortem analysis of clanbft NDJSON traces.
//!
//! ```text
//! clanbft-inspect waterfall <trace>           commit-latency waterfall per block
//! clanbft-inspect health    <trace>           per-round DAG health
//! clanbft-inspect incidents <trace>           evidence grouped + attack correlation
//! clanbft-inspect dot       <trace> [--rounds a..b]   Graphviz DAG rendering
//! clanbft-inspect ascii     <trace> [--rounds a..b]   ASCII DAG rendering
//! clanbft-inspect diff      <baseline> <candidate>    per-stage regression report
//! clanbft-inspect check     <trace>           invariant gate (exit 1 on violation)
//! clanbft-inspect alerts    <trace>           offline detector replay + cluster verdict
//! clanbft-inspect profile   <profile>         hot scopes + tree + allocation tables
//! clanbft-inspect profile --diff <base> <cand>   per-stage time deltas + exact count check
//! ```
//!
//! A trace or profile path of `-` reads from stdin.

use clanbft_inspect::{
    alert_report, ascii, check_report, diff, dot, health_report, incident_report, parse_profile,
    parse_round_range, parse_trace, profile_diff, profile_report, waterfall, PerfProfile, Trace,
};
use std::io::Read as _;
use std::process::ExitCode;

const USAGE: &str =
    "usage: clanbft-inspect <waterfall|health|incidents|alerts|dot|ascii|check> <trace> \
                     [--rounds a..b]\n       clanbft-inspect diff <baseline> <candidate>\n       \
                     clanbft-inspect profile <profile> | profile --diff <base> <cand>\n       \
                     (a trace path of '-' reads stdin)";

fn load(path: &str) -> Result<Trace, String> {
    let trace = parse_trace(&read_input(path)?).map_err(|e| format!("parsing {path}: {e}"))?;
    if trace.skipped > 0 {
        eprintln!(
            "clanbft-inspect: note: skipped {} line(s) carrying no known event in {path}",
            trace.skipped
        );
    }
    Ok(trace)
}

fn read_input(path: &str) -> Result<String, String> {
    if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        Ok(buf)
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
    }
}

fn load_profile(path: &str) -> Result<PerfProfile, String> {
    parse_profile(&read_input(path)?).map_err(|e| format!("parsing {path}: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return Err(USAGE.to_string());
    };
    let cmd = cmd.as_str();
    match cmd {
        "waterfall" | "health" | "incidents" | "alerts" | "check" => {
            let path = args.get(1).ok_or(USAGE)?;
            let trace = load(path)?;
            match cmd {
                "waterfall" => print!("{}", waterfall(&trace)),
                "health" => print!("{}", health_report(&trace)),
                "incidents" => print!("{}", incident_report(&trace)),
                "alerts" => print!("{}", alert_report(&trace)),
                _ => {
                    let (report, ok) = check_report(&trace);
                    print!("{report}");
                    if !ok {
                        return Ok(ExitCode::FAILURE);
                    }
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        "dot" | "ascii" => {
            let path = args.get(1).ok_or(USAGE)?;
            let (from, to) = match args.get(2).map(String::as_str) {
                Some("--rounds") => {
                    let sel = args.get(3).ok_or("--rounds needs a selector (a..b)")?;
                    parse_round_range(sel)?
                }
                Some(other) => return Err(format!("unknown option {other:?}\n{USAGE}")),
                None => (None, None),
            };
            let trace = load(path)?;
            if cmd == "dot" {
                print!("{}", dot(&trace, from, to));
            } else {
                print!("{}", ascii(&trace, from, to));
            }
            Ok(ExitCode::SUCCESS)
        }
        "profile" => {
            match args.get(1).map(String::as_str) {
                Some("--diff") => {
                    let a = args.get(2).ok_or(USAGE)?;
                    let b = args.get(3).ok_or(USAGE)?;
                    if a == "-" && b == "-" {
                        return Err("profile --diff can read at most one file from stdin".into());
                    }
                    if let Some(other) = args.get(4) {
                        return Err(format!("unknown option {other:?}\n{USAGE}"));
                    }
                    let pa = load_profile(a)?;
                    let pb = load_profile(b)?;
                    // The verdict line is informational: host-load noise
                    // must not fail a build on its own, so gates grep for
                    // "verdict:" instead of relying on the exit code.
                    print!("{}", profile_diff(&pa, &pb));
                }
                Some(path) => print!("{}", profile_report(&load_profile(path)?)),
                None => return Err(USAGE.to_string()),
            }
            Ok(ExitCode::SUCCESS)
        }
        "diff" => {
            let a = args.get(1).ok_or(USAGE)?;
            let b = args.get(2).ok_or(USAGE)?;
            if a == "-" && b == "-" {
                return Err("diff can read at most one trace from stdin".to_string());
            }
            let ta = load(a)?;
            let tb = load(b)?;
            print!("{}", diff(&ta, &tb));
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("clanbft-inspect: {msg}");
            ExitCode::FAILURE
        }
    }
}
