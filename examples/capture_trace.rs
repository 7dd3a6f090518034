//! Capture traces: run the same 7-party single-clan tribe twice — benign,
//! then with one `Withhold` attacker — export both merged NDJSON traces,
//! and run the `clanbft-inspect` post-mortem toolchain over them inline.
//!
//! ```text
//! cargo run --example capture_trace [out_dir]      # default target/traces
//! ```
//!
//! Writes `benign.ndjson` and `withhold.ndjson` under `out_dir`, prints the
//! benign run's commit waterfall, the incident report of the adversarial
//! run, and the benign→withhold diff (the verdict names the pull-retry
//! machinery — exactly how victims of withholding recover).
//!
//! Each run's `MemRecorder` doubles as its black box with a panic-hook
//! dump, so a crash mid-run leaves `clanbft-flight.ndjson` (or
//! `$CLANBFT_DUMP`) behind for post-mortem — the workflow EXPERIMENTS.md
//! documents.

use clanbft_adversary::Attack;
use clanbft_inspect::{check_report, diff, incident_report, parse_trace, waterfall};
use clanbft_sim::{build_tribe, export_trace, tribe::elect_clan, TribeSpec};
use clanbft_telemetry::{install_panic_dump, Telemetry};
use clanbft_types::{Micros, PartyId};
use std::sync::Arc;

const N: usize = 7;
const SEED: u64 = 42;
const ROUNDS: u64 = 8;

/// Builds the shared spec both runs use; only the attack set differs.
fn spec(byzantine: Vec<(PartyId, Attack)>, telemetry: Telemetry) -> TribeSpec {
    let mut spec = TribeSpec::new(N);
    spec.clans = Some(vec![elect_clan(N, 4, SEED)]);
    spec.txs_per_proposal = 50;
    spec.max_round = Some(ROUNDS);
    // Short pull deadline: a probe at a withholding peer times out and
    // rotates (exercising the retry machinery) instead of silently waiting
    // for certification to escalate the pull first.
    spec.pull_retry = Micros::from_millis(20);
    spec.seed = SEED;
    spec.byzantine = byzantine;
    spec.telemetry = telemetry;
    spec
}

/// Runs one tribe to quiescence and returns its merged trace text.
fn run(byzantine: Vec<(PartyId, Attack)>) -> String {
    let (telemetry, mem) = Telemetry::mem();
    install_panic_dump(Arc::clone(&mem));
    let spec = spec(byzantine, telemetry);
    let mut built = build_tribe(&spec);
    built.sim.run_until(Micros::from_secs(120));
    // Honour `CLANBFT_DUMP` even on clean exits: the black box is most
    // useful when the interesting run is the one that *didn't* crash too.
    if let Some(path) = mem.dump_if_requested() {
        println!("flight recorder dumped to {path}");
    }
    export_trace(&spec, &mem)
}

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "target/traces".to_string());
    std::fs::create_dir_all(&out_dir).expect("create output directory");

    println!("== run 1/2: benign ({N} parties, single clan, seed {SEED}) ==");
    let benign_text = run(Vec::new());

    // p1 is the lowest-indexed clan member for this seed, so a victim's
    // first payload pull lands on the withholder itself (echoers are
    // probed in index order) and must recover through the retry/rotation
    // machinery — the signature `clanbft-inspect diff` flags.
    println!("== run 2/2: withhold (p1 withholds from clan peer p2, same seed) ==");
    let withhold_text = run(vec![(
        PartyId(1),
        Attack::Withhold {
            victims: vec![PartyId(2)],
        },
    )]);

    let benign_path = format!("{out_dir}/benign.ndjson");
    let withhold_path = format!("{out_dir}/withhold.ndjson");
    std::fs::write(&benign_path, &benign_text).expect("write benign trace");
    std::fs::write(&withhold_path, &withhold_text).expect("write withhold trace");
    println!("wrote {benign_path} and {withhold_path}\n");

    let benign = parse_trace(&benign_text).expect("benign trace parses");
    let withhold = parse_trace(&withhold_text).expect("withhold trace parses");

    println!("-- benign commit waterfall --");
    print!("{}", waterfall(&benign));

    println!("\n-- withhold incident report --");
    print!("{}", incident_report(&withhold));

    println!("\n-- benign -> withhold diff --");
    print!("{}", diff(&benign, &withhold));

    let (report, ok) = check_report(&benign);
    print!("\nbenign {report}");
    assert!(ok, "benign trace failed invariant checks");
    let (report, ok) = check_report(&withhold);
    print!("withhold {report}");
    assert!(ok, "withhold trace failed invariant checks");
}
