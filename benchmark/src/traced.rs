//! The traced pass: reference, profiled and recorded repetitions of one
//! workload, the layer drivers, and the per-layer metrics read out of them.

use crate::bench::{check_same, outcome, Options, Outcome, Values};
use crate::json::Json;
use crate::layers::{self, instruments, Env, Out};
use crate::run::{run_rep, Rep, SimNumbers};
use crate::spans::Spans;
use crate::spec::Spec;
use crate::stats::median;
use crate::tree::{scope_totals, Fold};
use crate::workload::Workload;
use clanbft_profiler as prof;
use clanbft_sim::TribeSpec;
use clanbft_telemetry::{counters, Event, MemRecorder, Stamped, Telemetry};
use clanbft_types::{Micros, PartyId, Round};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// What the repetitions of a traced run leave behind.
struct Passes {
    /// Simulated numbers of the first (untraced) repetition; every later
    /// one was checked against them.
    numbers: SimNumbers,
    violations: Vec<String>,
    /// On-CPU seconds of `run_until`, per kind of pass.
    cpu_untraced: Vec<f64>,
    cpu_profiled: Vec<f64>,
    cpu_traced: Vec<f64>,
    /// Scope tree of the last profiler-only pass: free of the recorder's
    /// own work, so the tree and allocation metrics come from here.
    report: prof::Report,
    /// Scope tree, recorder and tribe spec of the last recorded pass.
    report_traced: prof::Report,
    rec: Arc<MemRecorder>,
    spec: TribeSpec,
}

/// Runs one repetition with the profiler on (full allocation accounting)
/// and returns it with the drained scope tree.
fn profiled_rep(
    w: &Workload,
    seed: u64,
    dir: &Path,
    telemetry: Telemetry,
    spans: &mut Spans,
) -> (Rep, prof::Report) {
    prof::reset();
    prof::enable();
    let rep = run_rep(w, seed, dir, telemetry, spans);
    let report = prof::take_report();
    prof::disable();
    prof::reset();
    (rep, report)
}

/// Each kind of pass runs twice (once under `--quick`): the instrument
/// overheads compare the fastest of each kind, because the minimum is what
/// a pass costs when nothing else on the host interferes and two single
/// readings differ by more than the overheads do.
fn run_passes(w: &Workload, opts: &Options, tmp: &Path, spans: &mut Spans) -> Passes {
    let passes = if opts.quick { 1 } else { 2 };
    let seed = opts.seed;

    // Untraced: a warm-up (the source of the simulated numbers; under
    // `--quick` also the reference), then the reference repetitions.
    spans.set_pass("untraced");
    let warm = run_rep(w, seed, &tmp.join("ref-0"), Telemetry::null(), spans);
    let numbers = warm.numbers.clone();
    let mut violations = warm.violations.clone();
    let mut cpu_untraced = if opts.quick {
        vec![warm.cpu_s]
    } else {
        Vec::new()
    };
    while cpu_untraced.len() < passes {
        let k = cpu_untraced.len() + 1;
        let dir = tmp.join(format!("ref-{k}"));
        let rep = run_rep(w, seed, &dir, Telemetry::null(), spans);
        check_same(&format!("reference {k}"), &numbers, &rep, &mut violations);
        cpu_untraced.push(rep.cpu_s);
    }

    spans.set_pass("profiled");
    let mut cpu_profiled = Vec::new();
    let mut report = prof::Report::default();
    for k in 0..passes {
        let dir = tmp.join(format!("prof-{k}"));
        let (rep, r) = profiled_rep(w, seed, &dir, Telemetry::null(), spans);
        check_same("profiled pass", &numbers, &rep, &mut violations);
        cpu_profiled.push(rep.cpu_s);
        report = r;
    }

    // Profiler + in-memory recorder: counters, histograms and the event
    // stream the stage fold and the offline instruments read.
    spans.set_pass("traced");
    let mut cpu_traced = Vec::new();
    let mut last = None;
    for k in 0..passes {
        drop(last.take());
        let (telemetry, rec) = Telemetry::mem();
        let dir = tmp.join(format!("traced-{k}"));
        let (rep, r) = profiled_rep(w, seed, &dir, telemetry, spans);
        check_same("traced pass", &numbers, &rep, &mut violations);
        cpu_traced.push(rep.cpu_s);
        last = Some((rep.spec, r, rec));
    }
    let (spec, report_traced, rec) = last.expect("at least one traced pass ran");
    Passes {
        numbers,
        violations,
        cpu_untraced,
        cpu_profiled,
        cpu_traced,
        report,
        report_traced,
        rec,
        spec,
    }
}

/// The audit items only a recorder can see.
fn audit_recorded(w: &Workload, rec: &MemRecorder, timeouts: usize, bad: &mut Vec<String>) {
    if rec.dropped_events() > 0 {
        bad.push(format!(
            "trace: the recorder's ring dropped {} events",
            rec.dropped_events()
        ));
    }
    if !w.benign() {
        return;
    }
    if timeouts != 0 {
        bad.push(format!("benign: consensus.timeouts = {timeouts}"));
    }
    // The counters `telemetry::counters` documents as zero in benign runs.
    // `rejected.duplicate` and `pull.retries` are not among them: both may
    // tick on delivery races without anyone misbehaving.
    for c in [
        counters::REJECTED_BAD_SIG,
        counters::REJECTED_EQUIVOCATION,
        counters::REJECTED_BUFFER_FULL,
        counters::REJECTED_BAD_PAYLOAD,
        counters::EVIDENCE_RECORDED,
    ] {
        if rec.counter(c) != 0 {
            bad.push(format!("benign: counter {c} = {}", rec.counter(c)));
        }
    }
}

pub(crate) fn per_layer(
    w: &Workload,
    opts: &Options,
    spec: &Spec,
    tmp: &Path,
) -> Result<Outcome, String> {
    let mut spans = Spans::on();
    let mut p = run_passes(w, opts, tmp, &mut spans);
    let (numbers, rec, report) = (&p.numbers, &p.rec, &p.report);

    spans.set_pass("drivers");
    let env = Env {
        w,
        seed: opts.seed,
        quick: opts.quick,
        tmp,
    };
    let mut out: Out = layers::run_drivers(&env, &mut spans);
    let events = rec.events();
    let trace = clanbft_sim::export_trace(&p.spec, rec);
    let inspect_findings = spans.time("driver.instruments", |_| {
        instruments::run(&events, w.n as u32, &trace, &mut out)
    });

    // --- tree: the profiled pass's scope tree ------------------------------
    let fold = Fold::of(report);
    let per_call = |name: &str| {
        let (calls, total_ns) = scope_totals(report, name);
        total_ns as f64 / calls.max(1) as f64
    };
    out.insert("rbc.handle_ns", per_call("rbc.handle"));
    out.insert("rbc.self_ms", fold.crate_ms("rbc"));
    out.insert("consensus.self_ms", fold.crate_ms("consensus"));
    out.insert(
        "consensus.process_vertex_us",
        per_call("consensus.process_vertex") / 1e3,
    );
    out.insert("simnet.self_ms", fold.crate_ms("simnet"));
    let root = report.scopes.iter().find(|s| s.path == "sim.run");
    let alloc = |f: fn(&prof::ScopeStat) -> u64| root.map_or(0.0, |s| f(s) as f64);
    out.insert(
        "alloc.count_per_event",
        alloc(|s| s.alloc_count) / numbers.events.max(1) as f64,
    );
    out.insert(
        "alloc.bytes_per_tx",
        alloc(|s| s.alloc_bytes) / numbers.committed_txs.max(1) as f64,
    );
    out.insert("alloc.peak_live_mb", alloc(|s| s.peak_bytes) / 1e6);

    // --- run: the finished tribe and the recorder --------------------------
    out.insert(
        "rbc.pull_retries",
        rec.counter(counters::PULL_RETRIES) as f64,
    );
    out.insert(
        "consensus.msgs_per_commit",
        numbers.msgs as f64 / numbers.committed_vertices.max(1) as f64,
    );
    // Timeouts for rounds past `rounds` are the run's end, not a fault:
    // proposing has stopped, so every party's round timer fires once.
    let timeouts = events
        .iter()
        .filter(|e| matches!(e.event, Event::TimeoutAnnounced { round } if round.0 <= w.rounds))
        .count();
    out.insert("consensus.timeouts", timeouts as f64);
    out.insert(
        "consensus.rounds_per_sim_s",
        numbers.last_round as f64 / numbers.sim_span_s,
    );
    let (leader_p50, nonleader_p50) = commit_path_medians(&events);
    out.insert("consensus.leader_commit_p50_ms", leader_p50);
    out.insert("consensus.nonleader_commit_p50_ms", nonleader_p50);
    out.insert("consensus.recovery_ms", numbers.recovery_ms);

    let offered = numbers.mempool_admitted + numbers.mempool_rejected;
    out.insert(
        "mempool.rejected_share",
        numbers.mempool_rejected as f64 / offered.max(1) as f64,
    );
    out.insert("mempool.batch_p50", numbers.batch_p50 as f64);
    out.insert(
        "mempool.queue_wait_p50_ms",
        rec.histogram(counters::MEMPOOL_QUEUE_DELAY)
            .map_or(0.0, |h| h.percentile(0.5) as f64 / 1e3),
    );

    let commits = rec.counter(counters::COMMIT_VERTICES).max(1) as f64;
    out.insert(
        "storage.fsyncs_per_commit",
        rec.counter(counters::WAL_FSYNCS) as f64 / commits,
    );
    out.insert(
        "storage.wal_bytes_per_commit",
        rec.counter(counters::WAL_BYTES) as f64 / commits,
    );
    let fsync_busy_ms = rec
        .histogram(counters::WAL_FSYNC_MICROS)
        .map_or(0.0, |h| h.mean() * h.count() as f64 / 1e3);
    out.insert("storage.fsync_busy_ms", fsync_busy_ms);

    out.insert("simnet.events", numbers.events as f64);
    out.insert(
        "simnet.events_per_s",
        numbers.events as f64 / median(&p.cpu_untraced),
    );
    out.insert(
        "simnet.msgs_per_tx",
        numbers.msgs as f64 / numbers.committed_txs.max(1) as f64,
    );
    let shares = byte_shares(&numbers.bytes_by_kind);
    for (name, share) in BYTE_SHARE_NAMES.iter().zip(shares) {
        out.insert(name, share);
    }
    let share_sum: f64 = shares.iter().sum();

    let ms = |pass: &str, name: &str| spans.seconds(pass, name).unwrap_or(f64::NAN) * 1e3;
    out.insert("sim.build_tribe_ms", ms("untraced", "build_tribe"));
    out.insert("sim.collect_metrics_ms", ms("untraced", "collect_metrics"));

    let fastest = |times: &[f64]| times.iter().copied().fold(f64::INFINITY, f64::min);
    let (base, with_prof, with_both) = (
        fastest(&p.cpu_untraced),
        fastest(&p.cpu_profiled),
        fastest(&p.cpu_traced),
    );
    out.insert("profiler.overhead_pct", (with_prof - base) / base * 100.0);
    out.insert(
        "telemetry.overhead_pct",
        (with_both - with_prof) / base * 100.0,
    );
    out.insert("telemetry.events_recorded", rec.event_count() as f64);

    // --- audit and reconciliation, printed rather than assumed -------------
    audit_recorded(w, rec, timeouts, &mut p.violations);
    if (share_sum - 1.0).abs() > 1e-9 {
        p.violations.push(format!(
            "bytes: simnet.bytes_share_* sum to {share_sum} instead of 1"
        ));
    }
    let span_ms = ms("profiled", "run_until");
    print_reconciliation(w, &fold, span_ms, fsync_busy_ms, share_sum, &p.violations);
    // `inspect check` judges the trace by its own rules; what it flags is
    // reported, not failed (the audit above is the benchmark's verdict).
    if let Some(first) = inspect_findings.first() {
        println!(
            "{}: note: {} finding(s) from inspect check, the first: {first}",
            w.name,
            inspect_findings.len()
        );
    }

    let path = opts.out_dir.join(format!("{}.trace.ndjson", w.name));
    let text = trace_file(&spans, &fold, report, &p.report_traced);
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{}: trace written to {}", w.name, path.display());

    let mut v = Values::default();
    for (name, value) in out {
        v.one(name, value);
    }
    Ok(outcome(
        w,
        &p.numbers,
        p.violations,
        v.finish(&spec.per_layer)?,
    ))
}

fn print_reconciliation(
    w: &Workload,
    fold: &Fold,
    span_ms: f64,
    fsync_busy_ms: f64,
    share_sum: f64,
    violations: &[String],
) {
    let name = w.name;
    println!("{name}: profiled pass, self time per crate under sim.run (span run_until = {span_ms:.1} ms):");
    for (krate, self_ms) in &fold.self_ms {
        println!(
            "{name}:   {krate:<10} {self_ms:>10.1} ms  {:>5.1} %",
            self_ms / fold.sum_ms() * 100.0
        );
    }
    let residual = fold.residual(span_ms);
    println!(
        "{name}: per-crate self times sum to {:.1} ms; residual against the span {:.2} % (limit 2 %): {}",
        fold.sum_ms(),
        residual * 100.0,
        if residual <= 0.02 { "reconciled" } else { "NOT RECONCILED" }
    );
    let deterministic = !violations.iter().any(|v| v.starts_with("determinism"));
    println!(
        "{name}: traced sim_* equal untraced: {}; simnet.bytes_share_* sum = {share_sum:.12}",
        if deterministic { "yes" } else { "NO" }
    );
    // `storage` has no profiler scope of its own: its fsync time sits in
    // the self time of the consensus scopes that persist before sending.
    let storage_ms = fsync_busy_ms.min(fold.crate_ms("consensus"));
    let mut layers_ms: Vec<(&str, f64)> = fold
        .self_ms
        .iter()
        .map(|(k, v)| {
            (
                *k,
                if *k == "consensus" {
                    v - storage_ms
                } else {
                    *v
                },
            )
        })
        .chain([("storage", storage_ms)])
        .filter(|l| l.1 > 0.0)
        .collect();
    layers_ms.sort_by(|a, b| b.1.total_cmp(&a.1));
    let ranked: Vec<String> = layers_ms
        .iter()
        .map(|(k, v)| format!("{k} {v:.0} ms"))
        .collect();
    let predicted = match (w.restart.is_some(), w.open_rate_tps.is_some()) {
        (true, _) => "storage",
        (_, true) => "mempool",
        _ => "simnet + rbc",
    };
    println!(
        "{name}: layers by host time: {}  (predicted dominant: {predicted})",
        ranked.join(", ")
    );
}

/// The trace file: the benchmark's own spans, the per-crate fold of the
/// profiled pass, and the full scope trees of both instrumented passes.
fn trace_file(
    spans: &Spans,
    fold: &Fold,
    profiled: &prof::Report,
    traced: &prof::Report,
) -> String {
    let mut text = spans.to_ndjson();
    for (name, self_ms) in &fold.self_ms {
        let line = Json::obj([
            ("fold", Json::Str("crate".to_string())),
            ("crate", Json::Str(name.to_string())),
            ("self_ms", Json::Num(*self_ms)),
        ]);
        text.push_str(&line.render());
        text.push('\n');
    }
    text.push_str(&profiled.to_ndjson("profiled"));
    text.push_str(&traced.to_ndjson("traced"));
    text
}

const BYTE_SHARE_NAMES: [&str; 5] = [
    "simnet.bytes_share_val",
    "simnet.bytes_share_meta",
    "simnet.bytes_share_echo_cert",
    "simnet.bytes_share_vote_timeout",
    "simnet.bytes_share_pull_state",
];

/// Shares of the simulated wire bytes by message class, in
/// [`BYTE_SHARE_NAMES`] order. Every kind lands in exactly one class
/// (pull and state transfer take whatever is not named), so they sum to 1.
pub fn byte_shares(by_kind: &[(&'static str, u64)]) -> [f64; 5] {
    let mut classes = [0u64; 5];
    for &(kind, bytes) in by_kind {
        let class = match kind {
            "rbc.val" => 0,
            "rbc.meta" => 1,
            "rbc.echo" | "rbc.ready" | "rbc.cert" => 2,
            "vote" | "timeout" => 3,
            _ => 4,
        };
        classes[class] += bytes;
    }
    let total: u64 = classes.iter().sum();
    classes.map(|c| {
        if total == 0 {
            0.0
        } else {
            c as f64 / total as f64
        }
    })
}

/// Median propose → commit latency in milliseconds, one sample per
/// committing party per vertex, split by commit path: `(leader,
/// non-leader)`. The same population `telemetry::stage_breakdown` folds,
/// read out exactly instead of through its power-of-two histogram buckets.
fn commit_path_medians(events: &[Stamped]) -> (f64, f64) {
    let mut proposed: HashMap<(Round, PartyId), Micros> = HashMap::new();
    for e in events {
        if let Event::VertexProposed { round, .. } = e.event {
            proposed.entry((round, e.party)).or_insert(e.at);
        }
    }
    let (mut leader, mut other) = (Vec::new(), Vec::new());
    for e in events {
        if let Event::VertexCommitted {
            round,
            source,
            leader: is_leader,
            ..
        } = e.event
        {
            if let Some(&at) = proposed.get(&(round, source)) {
                let ms = e.at.saturating_sub(at).as_millis_f64();
                if is_leader { &mut leader } else { &mut other }.push(ms);
            }
        }
    }
    let or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    (or_zero(&leader), or_zero(&other))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_shares_cover_every_kind_and_sum_to_one() {
        let shares = byte_shares(&[
            ("rbc.val", 600),
            ("rbc.meta", 100),
            ("rbc.echo", 50),
            ("rbc.ready", 25),
            ("rbc.cert", 25),
            ("vote", 40),
            ("timeout", 10),
            ("rbc.pull", 20),
            ("rbc.pull_resp", 60),
            ("state.chunk", 50),
            ("some.future.kind", 20),
        ]);
        assert_eq!(shares, [0.6, 0.1, 0.1, 0.05, 0.15]);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(byte_shares(&[]), [0.0; 5]);
    }

    #[test]
    fn commit_paths_split_by_the_leader_flag() {
        let at = |us, party, event| Stamped {
            at: Micros(us),
            party: PartyId(party),
            event,
        };
        let proposed = |round| Event::VertexProposed {
            round: Round(round),
            tx_count: 1,
            digest: 0,
            strong: Vec::new(),
            weak: 0,
        };
        let committed = |round, source, leader| Event::VertexCommitted {
            round: Round(round),
            source: PartyId(source),
            leader,
            sequence: 0,
        };
        let events = vec![
            at(1_000, 0, proposed(1)),
            at(2_000, 1, proposed(1)),
            at(4_000, 0, committed(1, 0, true)),
            at(6_000, 1, committed(1, 0, true)),
            at(9_000, 0, committed(1, 1, false)),
            // A commit whose proposal predates the trace is skipped.
            at(9_500, 0, committed(0, 3, false)),
        ];
        assert_eq!(commit_path_medians(&events), (4.0, 7.0));
        assert_eq!(commit_path_medians(&[]), (0.0, 0.0));
    }
}
