//! End-to-end smoke: the `--quick` sweep (one repetition, at most 8 rounds
//! under load) through the real binary, then the contract check — every
//! metric `BENCHMARK.json` declares appears in the output with a finite
//! value, and nothing undeclared does.

use clanbft_benchmark::compare::compare;
use clanbft_benchmark::json::Json;
use clanbft_benchmark::spec::Spec;
use std::process::Command;

// A debug build runs the n = 50 workloads some twenty times slower; the
// gate (`benchmark/check.sh`) tests in release.
#[test]
#[cfg_attr(debug_assertions, ignore = "needs --release to finish in seconds")]
fn quick_sweep_reports_exactly_the_declared_metrics() {
    let target = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-sweep");
    let _ = std::fs::remove_dir_all(&target);
    let started = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_clanbft-benchmark"))
        .args(["--quick", "--seed", "12"])
        .env("CARGO_TARGET_DIR", &target)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "quick sweep failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    println!("quick sweep took {:.1} s", started.elapsed().as_secs_f64());

    let results_path = target.join("results").join("results.json");
    let results = Json::parse(&std::fs::read_to_string(&results_path).expect("results.json"))
        .expect("results.json parses");
    let spec = Spec::load();
    for w in &spec.workloads {
        for (pass, defs) in [
            ("end_to_end", &spec.end_to_end),
            ("per_layer", &spec.per_layer),
        ] {
            let side = results
                .get("workloads")
                .and_then(|ws| ws.get(w))
                .and_then(|p| p.get(pass))
                .unwrap_or_else(|| panic!("{w}: no {pass} result"));
            assert_eq!(
                side.get("correct").and_then(Json::as_bool),
                Some(true),
                "{w} {pass}"
            );
            let Some(Json::Obj(metrics)) = side.get("metrics") else {
                panic!("{w} {pass}: no metrics object");
            };
            for d in defs.iter() {
                let m = metrics
                    .get(&d.name)
                    .unwrap_or_else(|| panic!("{w}: {} declared but not reported", d.name));
                let value = m.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{w}: {} = {value:?} is not finite",
                    d.name
                );
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit.as_str()));
                // The human-readable line names the metric too.
                assert!(stdout.contains(&d.name), "{}: not printed", d.name);
            }
            for name in metrics.keys() {
                assert!(
                    defs.iter().any(|d| &d.name == name),
                    "{w}: {name} reported but not declared"
                );
            }
        }
    }
    // Each workload left a trace, and the scratch storage tree is gone.
    for w in &spec.workloads {
        let trace = target.join("results").join(format!("{w}.trace.ndjson"));
        let text = std::fs::read_to_string(&trace).expect("trace file");
        assert!(
            text.contains("\"span\":\"run_until\""),
            "{w}: no run_until span"
        );
        assert!(
            text.contains("\"fold\":\"crate\""),
            "{w}: no per-crate fold"
        );
    }
    let tmp = target.join("results").join("tmp");
    assert!(
        !tmp.exists() || std::fs::read_dir(&tmp).unwrap().next().is_none(),
        "scratch storage tree left behind"
    );

    // A result file compared with itself is the degenerate A/A run: every
    // simulated value and count identical, nothing worse.
    let (report, ok) = compare(&results, &results, &spec, true);
    assert!(ok, "self-comparison failed:\n{report}");
    assert!(!report.contains("WORSE") && !report.contains("MISMATCH"));
    let _ = std::fs::remove_dir_all(&target);
}
