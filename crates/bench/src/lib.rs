//! What the one `figures` bench target (`benches/figures.rs`) shares with
//! its unit tests: the one line shape a simulated data point is recorded in,
//! and the comparison that says whether a recorded line still holds.
//!
//! A result line carries two kinds of column. The host-time ones ([`HOST`])
//! are reported and never judged. Every other column is *simulated*: a
//! same-seed run repeats it bit for bit on any host, so a committed line is
//! a pin, and [`judge`] compares it as text.

use clanbft_profiler as prof;
use clanbft_sim::{ExperimentSpec, RunMetrics};
use clanbft_telemetry::{JsonObj, MemRecorder};
use std::sync::Arc;

pub mod strawman;

/// The bench binary counts allocations per profiler scope (`--profile`). A
/// final binary can hold exactly one global allocator, so this lives here
/// (bench-only leaf) and never in the simulation libraries.
#[global_allocator]
static COUNTING_ALLOC: prof::CountingAlloc = prof::CountingAlloc;

/// The columns of a result line that are host time: those of the
/// repetition with the median wall time, then the spread over all of them.
pub const HOST: [&str; 8] = [
    "wall_us",
    "sim_events_per_sec",
    "wall_us_per_sim_sec",
    "wal_fsync_p50_us",
    "wal_fsync_p99_us",
    "reps",
    "wall_us_min",
    "wall_us_max",
];

/// One data point as a result line (no trailing newline): where it sits in
/// its figure, what `median` — the repetition with the median wall time —
/// measured, and the fastest and slowest of the `reps` repetitions.
pub fn result_line(
    (figure, proto, n, txs): (&str, &str, usize, u32),
    median: &RunMetrics,
    (reps, wall_us_min, wall_us_max): (usize, u64, u64),
) -> String {
    let share_sum: f64 = median.bytes_share.iter().sum();
    assert!(
        (share_sum - 1.0).abs() < 1e-9,
        "byte shares sum to {share_sum}"
    );
    let head = JsonObj::new()
        .str("figure", figure)
        .str("proto", proto)
        .u64("n", n as u64)
        .u64("txs_per_proposal", u64::from(txs))
        .finish();
    let bytes_per_tx = median.total_bytes.checked_div(median.committed_txs);
    let tail = JsonObj::new()
        .u64("bytes_per_tx", bytes_per_tx.unwrap_or(0))
        .u64("reps", reps as u64)
        .u64("wall_us_min", wall_us_min)
        .u64("wall_us_max", wall_us_max)
        .finish();
    let (head, body) = (head.trim_end_matches('}'), median.to_json());
    format!("{head},{},{}", &body[1..body.len() - 1], &tail[1..])
}

/// The `(key, raw value text)` pairs of a result line. The shape holds
/// numbers and labels free of `,"`, which therefore separates the pairs.
fn columns(line: &str) -> impl Iterator<Item = (&str, &str)> {
    let pairs = line.trim_start_matches('{').trim_end_matches('}');
    pairs.split(",\"").filter_map(|pair| {
        let (key, value) = pair.split_once("\":")?;
        Some((key.trim_start_matches('"'), value))
    })
}

fn column<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    columns(line).find(|(k, _)| *k == key).map(|(_, v)| v)
}

/// The simulated columns of the `committed` line that `new` does not
/// repeat, each as `key old -> new`. A column only `new` carries is not
/// judged: the committed line was written before it existed.
pub fn moved_columns(committed: &str, new: &str) -> Vec<String> {
    let simulated = columns(committed).filter(|(key, _)| !HOST.contains(key));
    let moved = simulated.filter_map(|(key, old)| {
        let now = column(new, key);
        (now != Some(old)).then(|| format!("{key} {old} -> {}", now.unwrap_or("(absent)")))
    });
    moved.collect()
}

/// Judges freshly measured `lines` against the text of a committed results
/// file. A line's counterpart is the committed line equal to it in the
/// `identity` columns (the last such line, should a file repeat one). The
/// report says per line `simulated: identical`, which columns moved, or
/// that nothing is committed for it; the flag is whether every line was
/// identical.
pub fn judge(committed: &str, lines: &[String], identity: &[&str]) -> (String, bool) {
    fn id<'a>(line: &'a str, identity: &[&str]) -> Vec<&'a str> {
        let text = |key: &&str| column(line, key).unwrap_or("?").trim_matches('"');
        identity.iter().map(text).collect()
    }
    let mut report = String::new();
    let mut all_identical = true;
    for line in lines {
        let wanted = id(line, identity);
        let mut newest_first = committed.lines().rev();
        let counterpart = newest_first.find(|c| id(c, identity) == wanted);
        let verdict = match counterpart.map(|c| moved_columns(c, line)) {
            None => "no committed line".to_string(),
            Some(moved) if moved.is_empty() => "identical".to_string(),
            Some(moved) => format!("MOVED {}", moved.join(", ")),
        };
        all_identical &= verdict == "identical";
        report.push_str(&format!("{:<52} simulated: {verdict}\n", wanted.join(" ")));
    }
    (report, all_identical)
}

/// Runs `spec` with per-node durable storage (WAL + checkpoints, real
/// fsyncs) under a scratch directory, the WAL columns filled from the run's
/// own recorder, which is returned beside them. The scratch tree is removed
/// afterwards.
pub fn run_durable(mut spec: ExperimentSpec) -> (RunMetrics, Arc<MemRecorder>) {
    let dir = std::env::temp_dir().join(format!(
        "clanbft-bench-durable-{}-{}-{}",
        std::process::id(),
        spec.n,
        spec.txs_per_proposal
    ));
    let _ = std::fs::remove_dir_all(&dir);
    spec.storage_root = Some(dir.clone());
    let run = spec.run_recorded();
    let _ = std::fs::remove_dir_all(&dir);
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_sim::Proto;
    use clanbft_telemetry::counters;

    fn small_spec(proto: Proto, n: usize, txs_per_proposal: u32) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(proto, n, txs_per_proposal);
        (spec.rounds, spec.warmup_rounds, spec.cooldown_rounds) = (6, 2, 2);
        spec
    }

    /// The durable point must actually pay (and count) the WAL tax. Only
    /// what the run repeats exactly is asserted: how long an `fsync` takes
    /// is the temp directory's business, and a fast or memory-backed one
    /// rounds it to 0 µs.
    #[test]
    fn durable_point_fills_wal_columns() {
        let (m, recorder) = run_durable(small_spec(Proto::SingleClan { clan_size: 4 }, 8, 50));
        assert!(m.committed_txs > 0, "durable run committed nothing");
        assert!(
            recorder.counter(counters::WAL_FSYNCS) > 0,
            "no fsync counted"
        );
        assert!(m.wal_fsync_p99_us >= m.wal_fsync_p50_us);
        assert!(
            m.wal_bytes_per_commit > 0,
            "no WAL bytes amortised per commit: {m:?}"
        );
    }

    /// A small real run as a result line.
    fn sample_line() -> String {
        let m = small_spec(Proto::Sailfish, 4, 20).run();
        result_line(("5a", "Sailfish", 4, 20), &m, (3, m.wall_us, m.wall_us + 1))
    }

    #[test]
    fn line_keeps_the_old_keys_and_adds_byte_shares_and_spread() {
        let line = sample_line();
        // Every key of the two shapes this one replaces, then the new ones.
        for key in "figure proto n txs_per_proposal committed_txs throughput_tps \
                    avg_latency_us p50_latency_us p99_latency_us window_us committed_rounds \
                    total_bytes bytes_per_tx proposals batch_p50 batch_p99 batch_max \
                    sim_events wall_us sim_events_per_sec wall_us_per_sim_sec \
                    wal_fsync_p50_us wal_fsync_p99_us wal_bytes_per_commit \
                    bytes_share_val bytes_share_meta bytes_share_echo_cert \
                    bytes_share_vote_timeout bytes_share_pull_state \
                    reps wall_us_min wall_us_max"
            .split_whitespace()
        {
            assert!(column(&line, key).is_some(), "{key} missing from {line}");
        }
        assert_eq!(columns(&line).count(), 32, "{line}");
        assert_eq!(column(&line, "proto"), Some("\"Sailfish\""));
        assert_eq!(column(&line, "reps"), Some("3"));
    }

    #[test]
    fn check_names_an_edited_simulated_column_and_ignores_host_columns() {
        let lines = [sample_line()];
        let line = &lines[0];
        let points = ["figure", "proto", "txs_per_proposal"];
        let edit = |key: &str, to: &str| {
            let old = format!("\"{key}\":{}", column(line, key).expect("column"));
            line.replace(&old, &format!("\"{key}\":{to}")) + "\n"
        };
        // Host columns may differ freely.
        let (report, ok) = judge(&edit("wall_us", "1"), &lines, &points);
        assert!(ok && report.contains("simulated: identical"), "{report}");
        // One simulated column edited by hand: named, and not ok.
        let (report, ok) = judge(&edit("throughput_tps", "123.5"), &lines, &points);
        assert!(!ok, "{report}");
        assert!(
            report.contains("MOVED throughput_tps 123.5 -> "),
            "{report}"
        );
        assert!(!report.contains("p50_latency_us"), "{report}");
        // A line nothing is committed for is not identical either; the
        // summary's identity leaves the load out, so there it is a move.
        let committed = edit("txs_per_proposal", "21");
        let (report, ok) = judge(&committed, &lines, &points);
        assert!(!ok && report.contains("no committed line"), "{report}");
        let (report, ok) = judge(&committed, &lines, &["figure", "proto"]);
        assert!(
            !ok && report.contains("MOVED txs_per_proposal 21 -> 20"),
            "{report}"
        );
        // A committed line older than a column is not judged on it; one
        // that carries a column the new line lost is.
        let older = line.replace(",\"bytes_share_meta\":0", "") + "\n";
        assert!(line.len() > older.len() && judge(&older, &lines, &points).1);
        let (report, ok) = judge(&(line.clone() + "\n"), &[older], &points);
        assert!(
            !ok && report.contains("bytes_share_meta 0 -> (absent)"),
            "{report}"
        );
    }
}
