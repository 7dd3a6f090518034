//! Throughput and latency measurement, defined as in the paper's §7:
//!
//! * **Throughput** — committed transactions per second, counted once a
//!   transaction's vertex has been committed by *all* non-faulty nodes.
//! * **Latency** — average time from a transaction's creation to its commit
//!   by all non-faulty nodes.
//!
//! Measurement excludes a warm-up and cool-down window of rounds so that
//! start-up transients and the truncated tail do not distort steady state.

use crate::tribe::TribeNode;
use clanbft_consensus::ConsensusMsg;
use clanbft_simnet::net::Simulator;
use clanbft_types::{Micros, PartyId, Round, VertexRef};
use std::collections::HashMap;

/// The message classes of [`RunMetrics::bytes_share`], in order: full
/// payloads, vertex metadata, echoes / readies / certificates, leader votes
/// and timeouts, and everything else (pulls and state transfer).
pub const BYTE_CLASSES: [&str; 5] = ["val", "meta", "echo_cert", "vote_timeout", "pull_state"];

/// Measured outcome of one run.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Transactions committed by every honest node in the window.
    pub committed_txs: u64,
    /// Committed transactions per second.
    pub throughput_tps: f64,
    /// Mean creation→commit-everywhere latency.
    pub avg_latency: Micros,
    /// Median per-batch latency.
    pub p50_latency: Micros,
    /// 99th percentile of per-batch latency.
    pub p99_latency: Micros,
    /// Span of the measurement window.
    pub window: Micros,
    /// Highest round committed by every honest node.
    pub committed_rounds: u64,
    /// Total bytes placed on the simulated wire (whole run, all nodes).
    pub total_bytes: u64,
    /// Shares of `total_bytes` by message class, in [`BYTE_CLASSES`] order.
    /// Every `NetStats::bytes_by_kind` label lands in exactly one class, so
    /// they sum to 1: what a `bytes_per_tx` figure is made of.
    pub bytes_share: [f64; 5],
    /// Non-empty proposals inside the window (for the batch distribution).
    pub proposals: u64,
    /// Median transactions per proposal (the dynamic sizer's choices).
    pub batch_p50: u64,
    /// 99th-percentile transactions per proposal.
    pub batch_p99: u64,
    /// Largest proposal in the window, in transactions.
    pub batch_max: u64,
    /// Events the simulator popped over the whole run (deliveries +
    /// timers). The numerator of `sim_events_per_sec`.
    pub sim_events: u64,
    /// Host wall-clock microseconds the event loop took (ROADMAP item 2's
    /// scaling cost; zero until [`RunMetrics::attach_host_costs`] runs).
    pub wall_us: u64,
    /// Simulator events processed per host wall second.
    pub sim_events_per_sec: f64,
    /// Host wall microseconds per simulated second — how much slower (or
    /// faster) than real time the simulation runs.
    pub wall_us_per_sim_sec: f64,
    /// Median WAL fsync latency, host-measured microseconds (zero in
    /// memory-only runs; filled by [`RunMetrics::attach_durability`]).
    pub wal_fsync_p50_us: u64,
    /// 99th-percentile WAL fsync latency, host-measured microseconds.
    pub wal_fsync_p99_us: u64,
    /// WAL bytes written per committed vertex, framing included — the
    /// durability tax each commit pays.
    pub wal_bytes_per_commit: u64,
}

impl RunMetrics {
    /// One NDJSON line, suitable for appending to a results file.
    pub fn to_json(&self) -> String {
        let mut obj = clanbft_telemetry::JsonObj::new()
            .u64("committed_txs", self.committed_txs)
            .f64("throughput_tps", self.throughput_tps)
            .u64("avg_latency_us", self.avg_latency.0)
            .u64("p50_latency_us", self.p50_latency.0)
            .u64("p99_latency_us", self.p99_latency.0)
            .u64("window_us", self.window.0)
            .u64("committed_rounds", self.committed_rounds)
            .u64("total_bytes", self.total_bytes)
            .u64("proposals", self.proposals)
            .u64("batch_p50", self.batch_p50)
            .u64("batch_p99", self.batch_p99)
            .u64("batch_max", self.batch_max)
            .u64("sim_events", self.sim_events)
            .u64("wall_us", self.wall_us)
            .f64("sim_events_per_sec", self.sim_events_per_sec)
            .f64("wall_us_per_sim_sec", self.wall_us_per_sim_sec)
            .u64("wal_fsync_p50_us", self.wal_fsync_p50_us)
            .u64("wal_fsync_p99_us", self.wal_fsync_p99_us)
            .u64("wal_bytes_per_commit", self.wal_bytes_per_commit);
        for (class, share) in BYTE_CLASSES.iter().zip(self.bytes_share) {
            obj = obj.f64(&format!("bytes_share_{class}"), share);
        }
        obj.finish()
    }

    /// Fills the host-side rate metrics from the measured wall-clock time of
    /// the event loop and the simulated span it covered (the last event's
    /// timestamp — `run_until` clamps `now` to its deadline, which would
    /// understate the rate for runs that drain early).
    pub fn attach_host_costs(&mut self, wall: std::time::Duration, sim_span: Micros) {
        self.wall_us = wall.as_micros() as u64;
        let wall_secs = wall.as_secs_f64();
        self.sim_events_per_sec = if wall_secs > 0.0 {
            self.sim_events as f64 / wall_secs
        } else {
            0.0
        };
        self.wall_us_per_sim_sec = if sim_span > Micros::ZERO {
            self.wall_us as f64 / sim_span.as_secs_f64()
        } else {
            0.0
        };
    }

    /// Fills the WAL/checkpoint durability columns from a recorder that
    /// observed the run: the fsync-latency histogram readout and the
    /// bytes-per-commit ratio (WAL bytes over committed vertices, both from
    /// counters). All three stay zero for memory-only runs.
    pub fn attach_durability(&mut self, rec: &clanbft_telemetry::MemRecorder) {
        use clanbft_telemetry::counters;
        if let Some(h) = rec.histogram(counters::WAL_FSYNC_MICROS) {
            let (p50, _p90, p99, _max) = h.readout();
            self.wal_fsync_p50_us = p50;
            self.wal_fsync_p99_us = p99;
        }
        if let Some(per_commit) = rec
            .counter(counters::WAL_BYTES)
            .checked_div(rec.counter(counters::COMMIT_VERTICES))
        {
            self.wal_bytes_per_commit = per_commit;
        }
    }
}

/// Collects metrics over the honest nodes after a run.
///
/// `warmup_rounds` vertices are skipped at the front; vertices above
/// `last_round` (usually `max_round − cooldown`) are skipped at the back.
pub fn collect_metrics(
    sim: &Simulator<ConsensusMsg, TribeNode>,
    honest: &[PartyId],
    warmup_rounds: u64,
    last_round: u64,
) -> RunMetrics {
    let _prof = clanbft_profiler::scope("sim.collect_metrics");
    assert!(!honest.is_empty(), "need at least one honest node");

    // Commit-everywhere time per vertex: max over honest nodes, only for
    // vertices all of them committed.
    let mut commit_times: HashMap<VertexRef, (usize, Micros)> = HashMap::new();
    for &p in honest {
        for c in &sim.node(p).committed_log {
            let e = commit_times.entry(c.vertex).or_insert((0, Micros::ZERO));
            e.0 += 1;
            e.1 = e.1.max(c.committed_at);
        }
    }
    let all_committed: HashMap<VertexRef, Micros> = commit_times
        .into_iter()
        .filter(|(_, (count, _))| *count == honest.len())
        .map(|(v, (_, t))| (v, t))
        .collect();

    let committed_rounds = all_committed.keys().map(|v| v.round.0).max().unwrap_or(0);

    // Batch latency: creation time lives with the proposer.
    let in_window = |r: Round| r.0 >= warmup_rounds && r.0 <= last_round;
    let mut txs: u64 = 0;
    let mut weighted_latency: u128 = 0;
    let mut latencies: Vec<(Micros, u64)> = Vec::new();
    let mut t_min = Micros(u64::MAX);
    let mut t_max = Micros::ZERO;
    // Batch-size distribution: transactions per proposal (one proposal =
    // one vertex), over the same committed, in-window population.
    let mut per_proposal: HashMap<VertexRef, u64> = HashMap::new();
    for &p in honest {
        for b in &sim.node(p).proposed_batches {
            if !in_window(b.vertex.round) {
                continue;
            }
            let Some(&commit_all) = all_committed.get(&b.vertex) else {
                continue;
            };
            let latency = commit_all.saturating_sub(b.created_at);
            txs += b.count as u64;
            weighted_latency += latency.0 as u128 * b.count as u128;
            latencies.push((latency, b.count as u64));
            *per_proposal.entry(b.vertex).or_insert(0) += b.count as u64;
            t_min = t_min.min(commit_all);
            t_max = t_max.max(commit_all);
        }
    }
    let mut batch_sizes: Vec<(Micros, u64)> =
        per_proposal.values().map(|&c| (Micros(c), 1)).collect();
    let proposals = batch_sizes.len() as u64;
    let batch_p50 = percentile(&mut batch_sizes, 0.50).0;
    let batch_p99 = percentile(&mut batch_sizes, 0.99).0;
    let batch_max = batch_sizes.last().map(|(c, _)| c.0).unwrap_or(0);

    let window = if txs > 0 {
        t_max.saturating_sub(t_min)
    } else {
        Micros::ZERO
    };
    let throughput_tps = if window > Micros::ZERO {
        txs as f64 / window.as_secs_f64()
    } else {
        0.0
    };
    let avg_latency = if txs > 0 {
        Micros((weighted_latency / txs as u128) as u64)
    } else {
        Micros::ZERO
    };
    let p50_latency = percentile(&mut latencies, 0.50);
    let p99_latency = percentile(&mut latencies, 0.99);

    let total_bytes = sim.stats().total_bytes();
    let mut class_bytes = [0u64; 5];
    for (&kind, &bytes) in &sim.stats().bytes_by_kind {
        let class = match kind {
            "rbc.val" => 0,
            "rbc.meta" => 1,
            "rbc.echo" | "rbc.ready" | "rbc.cert" => 2,
            "vote" | "timeout" => 3,
            _ => 4,
        };
        class_bytes[class] += bytes;
    }

    RunMetrics {
        committed_txs: txs,
        throughput_tps,
        avg_latency,
        p50_latency,
        p99_latency,
        window,
        committed_rounds,
        total_bytes,
        bytes_share: class_bytes.map(|b| b as f64 / total_bytes.max(1) as f64),
        proposals,
        batch_p50,
        batch_p99,
        batch_max,
        sim_events: sim.stats().handled_events,
        wall_us: 0,
        sim_events_per_sec: 0.0,
        wall_us_per_sim_sec: 0.0,
        wal_fsync_p50_us: 0,
        wal_fsync_p99_us: 0,
        wal_bytes_per_commit: 0,
    }
}

/// Weighted percentile over `(latency, weight)` samples.
fn percentile(samples: &mut [(Micros, u64)], q: f64) -> Micros {
    if samples.is_empty() {
        return Micros::ZERO;
    }
    samples.sort_by_key(|(l, _)| *l);
    let total: u64 = samples.iter().map(|(_, w)| *w).sum();
    if total == 0 {
        return Micros::ZERO;
    }
    // Rank of the sample holding quantile `q`, 1-based. The lower clamp
    // makes q = 0.0 return the minimum rather than tripping `acc >= 0` on
    // the first bucket regardless of its weight.
    let target = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut acc = 0u64;
    for (l, w) in samples.iter() {
        acc += w;
        if acc >= target {
            return *l;
        }
    }
    samples.last().expect("nonempty").0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_weighted() {
        let mut s = vec![(Micros(100), 98), (Micros(200), 1), (Micros(300), 1)];
        assert_eq!(percentile(&mut s, 0.5), Micros(100));
        assert_eq!(percentile(&mut s, 0.99), Micros(200));
        assert_eq!(percentile(&mut s, 1.0), Micros(300));
        assert_eq!(percentile(&mut [], 0.5), Micros::ZERO);
    }

    #[test]
    fn percentile_q_zero_is_the_minimum() {
        let mut s = vec![(Micros(300), 5), (Micros(100), 5), (Micros(200), 5)];
        assert_eq!(percentile(&mut s, 0.0), Micros(100));
        // A zero-weight sample never carries a quantile, even at q = 0.
        let mut z = vec![(Micros(50), 0), (Micros(80), 3)];
        assert_eq!(percentile(&mut z, 0.0), Micros(80));
        // All-zero weights degrade gracefully instead of dividing rank 0.
        let mut all_zero = vec![(Micros(10), 0)];
        assert_eq!(percentile(&mut all_zero, 0.5), Micros::ZERO);
    }

    #[test]
    fn run_metrics_json_line() {
        let m = RunMetrics {
            committed_txs: 10,
            throughput_tps: 2.5,
            avg_latency: Micros(400),
            p50_latency: Micros(350),
            p99_latency: Micros(900),
            window: Micros(4_000_000),
            committed_rounds: 8,
            total_bytes: 1234,
            bytes_share: [0.0; 5],
            proposals: 4,
            batch_p50: 3,
            batch_p99: 4,
            batch_max: 4,
            sim_events: 5000,
            wall_us: 0,
            sim_events_per_sec: 0.0,
            wall_us_per_sim_sec: 0.0,
            wal_fsync_p50_us: 0,
            wal_fsync_p99_us: 0,
            wal_bytes_per_commit: 0,
        };
        let mut m = m;
        m.attach_host_costs(std::time::Duration::from_millis(250), Micros::from_secs(2));
        let line = m.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"committed_txs\":10"));
        assert!(line.contains("\"p50_latency_us\":350"));
        assert!(line.contains("\"p99_latency_us\":900"));
        assert!(line.contains("\"throughput_tps\":2.5"));
        assert!(line.contains("\"proposals\":4"));
        assert!(line.contains("\"batch_p50\":3"));
        assert!(line.contains("\"batch_max\":4"));
        assert!(line.contains("\"sim_events\":5000"));
        assert!(line.contains("\"wall_us\":250000"));
        // 5000 events / 0.25 s and 250 ms / 2 simulated seconds.
        assert!(line.contains("\"sim_events_per_sec\":20000"));
        assert!(line.contains("\"wall_us_per_sim_sec\":125000"));
        assert!(line.contains("\"wal_fsync_p50_us\":0"));
        assert!(line.contains("\"wal_bytes_per_commit\":0"));
    }

    #[test]
    fn attach_durability_fills_wal_columns() {
        use clanbft_telemetry::{counters, MemRecorder, Recorder};
        let rec = MemRecorder::new();
        for v in [100u64, 200, 300, 400] {
            rec.record(counters::WAL_FSYNC_MICROS, v);
        }
        rec.add(counters::WAL_BYTES, 9_000);
        rec.add(counters::COMMIT_VERTICES, 30);
        let mut m = RunMetrics {
            committed_txs: 0,
            throughput_tps: 0.0,
            avg_latency: Micros::ZERO,
            p50_latency: Micros::ZERO,
            p99_latency: Micros::ZERO,
            window: Micros::ZERO,
            committed_rounds: 0,
            total_bytes: 0,
            bytes_share: [0.0; 5],
            proposals: 0,
            batch_p50: 0,
            batch_p99: 0,
            batch_max: 0,
            sim_events: 0,
            wall_us: 0,
            sim_events_per_sec: 0.0,
            wall_us_per_sim_sec: 0.0,
            wal_fsync_p50_us: 0,
            wal_fsync_p99_us: 0,
            wal_bytes_per_commit: 0,
        };
        m.attach_durability(&rec);
        assert!(m.wal_fsync_p50_us > 0);
        assert!(m.wal_fsync_p99_us >= m.wal_fsync_p50_us);
        assert_eq!(m.wal_bytes_per_commit, 300);
    }
}
