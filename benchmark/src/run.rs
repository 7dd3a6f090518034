//! One repetition of a workload: set up, run the simulator, read the
//! simulated numbers out of the finished tribe and audit its outputs.

use crate::spans::Spans;
use crate::stats::{highest_supported_quantile, weighted_quantile};
use crate::workload::{Workload, SIM_DEADLINE};
use clanbft_consensus::SailfishNode;
use clanbft_sim::{build_tribe, collect_metrics, BuiltTribe, TribeSpec};
use clanbft_telemetry::Telemetry;
use clanbft_types::{Micros, PartyId, VertexRef};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Everything deterministic one repetition yields: the `sim_*` metrics, the
/// failure accounting and the run-level counts per-layer metrics divide by.
/// Same seed ⇒ every field bit-identical, traced or not.
#[derive(Clone, Debug, PartialEq)]
pub struct SimNumbers {
    pub tps: f64,
    pub commit_p50_ms: f64,
    pub commit_tail_ms: f64,
    /// The quantile `commit_tail_ms` holds: the highest one, up to p99, that
    /// has at least ten latency samples beyond it.
    pub tail_quantile: f64,
    /// Slowest accountable transaction that did commit everywhere.
    pub commit_max_ms: f64,
    pub bytes_per_tx: f64,
    pub max_commit_gap_ms: f64,
    /// Restart → restarted node no further behind than the slowest honest
    /// node; 0 where nothing restarts.
    pub recovery_ms: f64,
    pub fails: FailCounts,
    /// Independent latency samples in the measurement window: one per
    /// proposal (a proposal's batches differ in creation stamp but commit
    /// together, and a batch's transactions share both).
    pub window_proposals: u64,
    /// Transactions those proposals carry (the samples' weights).
    pub window_txs: u64,
    /// Transactions committed by every honest node over the whole run.
    pub committed_txs: u64,
    /// Vertices committed by every honest node over the whole run.
    pub committed_vertices: u64,
    pub events: u64,
    pub msgs: u64,
    pub bytes_by_kind: Vec<(&'static str, u64)>,
    pub batch_p50: u64,
    pub mempool_admitted: u64,
    pub mempool_rejected: u64,
    pub last_round: u64,
    /// Simulated seconds up to the last commit (the event queue runs on
    /// past it: once proposing stops, every party's round timer fires).
    pub sim_span_s: f64,
}

/// Failure accounting: every offered transaction lands in exactly one
/// bucket (`ok`, `rejected`, `uncommitted` or `over_limit`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FailCounts {
    /// Transactions offered: admitted + rejected at admission.
    pub attempted: u64,
    /// Refused at admission.
    pub rejected: u64,
    /// Admitted but not committed by every honest node at end of run.
    pub uncommitted: u64,
    /// Committed by everyone, but later than the latency limit.
    pub over_limit: u64,
}

impl FailCounts {
    pub fn failed(&self) -> u64 {
        self.rejected + self.uncommitted + self.over_limit
    }

    /// failed / attempted, in `[0, 1]`.
    pub fn fail_share(&self) -> f64 {
        if self.attempted == 0 {
            return 1.0;
        }
        self.failed() as f64 / self.attempted as f64
    }
}

/// One batch as the failure accounting sees it.
#[derive(Clone, Copy, Debug)]
pub struct BatchOutcome {
    pub count: u64,
    /// Creation → commit-everywhere, or `None` if some honest node never
    /// committed it.
    pub latency: Option<Micros>,
}

/// Folds batch outcomes into [`FailCounts`]. `admitted` may exceed the
/// batch total (transactions still queued at end of run): the difference is
/// uncommitted too.
pub fn account(
    batches: impl IntoIterator<Item = BatchOutcome>,
    admitted: u64,
    rejected: u64,
    limit: Option<Micros>,
) -> FailCounts {
    let mut f = FailCounts {
        attempted: admitted + rejected,
        rejected,
        ..FailCounts::default()
    };
    let mut in_batches = 0;
    for b in batches {
        in_batches += b.count;
        match b.latency {
            None => f.uncommitted += b.count,
            Some(l) if limit.is_some_and(|max| l > max) => f.over_limit += b.count,
            Some(_) => {}
        }
    }
    f.uncommitted += admitted.saturating_sub(in_batches);
    f
}

/// A finished repetition.
pub struct Rep {
    pub spec: TribeSpec,
    /// Wall time of `sim.run_until` alone.
    pub wall_s: f64,
    /// Time this thread spent on a CPU inside `sim.run_until`: `wall_s`
    /// minus the time it was blocked (on the disk, under `fsync`) or
    /// waiting for a core. Falls back to `wall_s` where the scheduler's
    /// accounting cannot be read.
    pub cpu_s: f64,
    pub numbers: SimNumbers,
    /// Output-audit violations (empty = correct).
    pub violations: Vec<String>,
}

/// Nanoseconds the calling thread has spent running on a CPU, from the
/// scheduler's own accounting (first field of `schedstat`).
fn on_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    stat.split_whitespace().next()?.parse().ok()
}

/// A stopwatch over the calling thread's on-CPU time, with wall time
/// beside it (and in its place where the scheduler's accounting cannot be
/// read).
pub struct CpuClock {
    wall: Instant,
    cpu: Option<u64>,
}

impl CpuClock {
    pub fn start() -> CpuClock {
        CpuClock {
            wall: Instant::now(),
            cpu: on_cpu_ns(),
        }
    }

    pub fn wall_seconds(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn seconds(&self) -> f64 {
        match (self.cpu, on_cpu_ns()) {
            (Some(before), Some(after)) => (after - before) as f64 / 1e9,
            _ => self.wall_seconds(),
        }
    }
}

/// Set-up alone, `samples` times: election, key generation and
/// `build_tribe`, in memory. Returns the seconds each took.
///
/// Two things are kept out because they measure the host, not the program.
/// The storage directory: creating the durable workload's 16 directories
/// and WAL files took 0.3 ms in one hour and 1.4 ms in the next on this
/// sandbox (the per-layer `storage.*` drivers time that layer). And the
/// allocator's trim: each tribe stays alive until the next one is built,
/// because a build into a heap that was just handed back to the kernel
/// re-faults its pages, which made a third of all processes — depending on
/// where ASLR put the heap — report 140 µs for a 105 µs build.
pub fn setup_samples(w: &Workload, seed: u64, samples: usize) -> Vec<f64> {
    let mut previous = None;
    (0..samples)
        .map(|_| {
            let t = Instant::now();
            let mut spec = w.tribe_spec(seed, Path::new(""), Telemetry::null());
            spec.storage_root = None;
            spec.crashes.clear();
            spec.restarts.clear();
            let built = build_tribe(&spec);
            let s = t.elapsed().as_secs_f64();
            previous = Some(built);
            s
        })
        .collect()
}

/// Runs one repetition. `storage_dir` must not exist yet; it is removed
/// again before returning.
pub fn run_rep(
    w: &Workload,
    seed: u64,
    storage_dir: &Path,
    telemetry: Telemetry,
    spans: &mut Spans,
) -> Rep {
    if w.restart.is_some() {
        std::fs::create_dir_all(storage_dir).expect("storage root must be creatable");
    }
    let spec = spans.time("election", |_| w.tribe_spec(seed, storage_dir, telemetry));
    let mut built = spans.time("build_tribe", |_| build_tribe(&spec));

    let clock = CpuClock::start();
    spans.time("run_until", |_| built.sim.run_until(SIM_DEADLINE));
    let (wall_s, cpu_s) = (clock.wall_seconds(), clock.seconds());

    let metrics = spans.time("collect_metrics", |_| {
        collect_metrics(
            &built.sim,
            &built.honest,
            w.warmup_rounds,
            w.last_measured_round(),
        )
    });
    let (numbers, violations) = spans.time("audit", |_| {
        let view = View::new(w, &spec, &built);
        (view.numbers(&metrics), view.audit())
    });
    drop(built);
    // The WAL tree is scratch; a failed removal only leaves litter.
    let _ = std::fs::remove_dir_all(storage_dir);
    Rep {
        spec,
        wall_s,
        cpu_s,
        numbers,
        violations,
    }
}

/// Read-only view over a finished tribe with the commit-everywhere table
/// both the numbers and the audit need.
struct View<'a> {
    w: &'a Workload,
    spec: &'a TribeSpec,
    built: &'a BuiltTribe,
    /// Vertex → time the last honest node committed it (only vertices every
    /// honest node committed).
    everywhere: HashMap<VertexRef, Micros>,
}

impl<'a> View<'a> {
    fn new(w: &'a Workload, spec: &'a TribeSpec, built: &'a BuiltTribe) -> View<'a> {
        let mut seen: HashMap<VertexRef, (usize, Micros)> = HashMap::new();
        for &p in &built.honest {
            for c in &built.sim.node(p).committed_log {
                let e = seen.entry(c.vertex).or_insert((0, Micros::ZERO));
                e.0 += 1;
                e.1 = e.1.max(c.committed_at);
            }
        }
        let honest = built.honest.len();
        View {
            w,
            spec,
            built,
            everywhere: seen
                .into_iter()
                .filter(|(_, (k, _))| *k == honest)
                .map(|(v, (_, t))| (v, t))
                .collect(),
        }
    }

    fn node(&self, p: PartyId) -> &SailfishNode {
        self.built.sim.node(p)
    }

    fn honest_nodes(&self) -> impl Iterator<Item = (PartyId, &SailfishNode)> {
        self.built.honest.iter().map(|&p| (p, self.node(p)))
    }

    fn numbers(&self, m: &clanbft_sim::RunMetrics) -> SimNumbers {
        let stats = self.built.sim.stats();
        let w = self.w;

        // Latency samples: one per in-window batch committed everywhere,
        // weighted by its transaction count (same population as
        // `collect_metrics`; recomputed here because the tail rule needs
        // the sample count and the failure accounting needs every batch).
        let in_window =
            |v: &VertexRef| v.round.0 >= w.warmup_rounds && v.round.0 <= w.last_measured_round();
        let mut latencies: Vec<(u64, u64)> = Vec::new();
        let mut window_vertices: HashSet<VertexRef> = HashSet::new();
        let mut outcomes: Vec<BatchOutcome> = Vec::new();
        // A closed-loop proposer keeps offering until `rounds`, but nothing
        // proposed in the last rounds can commit before the run ends, so
        // only proposals up to the window's end are held to account. The
        // open loop stops arriving there and must drain completely.
        let accountable =
            |v: &VertexRef| w.open_rate_tps.is_some() || v.round.0 <= w.last_measured_round();
        let mut committed_txs = 0;
        for (_, node) in self.honest_nodes() {
            for b in &node.proposed_batches {
                let commit = self.everywhere.get(&b.vertex).copied();
                if commit.is_some() {
                    committed_txs += u64::from(b.count);
                }
                let latency = commit.map(|t| t.saturating_sub(b.created_at));
                if accountable(&b.vertex) {
                    outcomes.push(BatchOutcome {
                        count: u64::from(b.count),
                        latency,
                    });
                }
                if let (true, Some(l)) = (in_window(&b.vertex), latency) {
                    latencies.push((l.0, u64::from(b.count)));
                    window_vertices.insert(b.vertex);
                }
            }
        }
        let window_txs: u64 = latencies.iter().map(|l| l.1).sum();
        let window_proposals = window_vertices.len() as u64;
        let tail_quantile = highest_supported_quantile(window_proposals)
            .unwrap_or(0.5)
            .min(0.99);
        let tail = weighted_quantile(&mut latencies, tail_quantile).unwrap_or(0);

        let (mut admitted, mut rejected) = (0, 0);
        for (_, node) in self.honest_nodes() {
            if let Some(ingress) = node.ingress() {
                let s = ingress.pool().stats();
                admitted += s.admitted;
                rejected += s.rejected();
            }
        }
        let accountable_admitted = if w.open_rate_tps.is_some() {
            admitted
        } else {
            outcomes.iter().map(|o| o.count).sum()
        };

        SimNumbers {
            tps: self.throughput(),
            commit_p50_ms: m.p50_latency.as_millis_f64(),
            commit_tail_ms: Micros(tail).as_millis_f64(),
            tail_quantile,
            commit_max_ms: outcomes
                .iter()
                .filter_map(|o| o.latency)
                .max()
                .unwrap_or(Micros::ZERO)
                .as_millis_f64(),
            bytes_per_tx: stats.total_bytes() as f64 / committed_txs.max(1) as f64,
            max_commit_gap_ms: self.max_commit_gap().as_millis_f64(),
            recovery_ms: self.recovery().map_or(0.0, Micros::as_millis_f64),
            fails: account(
                outcomes.iter().copied(),
                accountable_admitted,
                rejected,
                w.latency_limit,
            ),
            window_proposals,
            window_txs,
            committed_txs,
            committed_vertices: self.everywhere.len() as u64,
            events: stats.handled_events,
            msgs: stats.sent_msgs.iter().sum(),
            bytes_by_kind: stats.bytes_by_kind.iter().map(|(k, v)| (*k, *v)).collect(),
            batch_p50: m.batch_p50,
            mempool_admitted: admitted,
            mempool_rejected: rejected,
            last_round: self
                .honest_nodes()
                .map(|(_, n)| n.round().0)
                .max()
                .unwrap_or(0),
            sim_span_s: self
                .honest_nodes()
                .filter_map(|(_, n)| n.committed_log.last())
                .map(|c| c.committed_at)
                .max()
                .unwrap_or(Micros::ZERO)
                .as_secs_f64(),
        }
    }

    /// Transactions committed by every honest node per simulated second:
    /// the transactions of rounds `(a, b]` that every honest node
    /// committed, over the time between the commits anchored on the leaders
    /// of rounds `a` and `b` landing everywhere — `a` and `b` being the
    /// window's first and last rounds (or the nearest anchored rounds
    /// inside it, where a leader was skipped). `b − a` rounds of offered
    /// load over the time `b − a` rounds took to commit.
    ///
    /// `collect_metrics` divides the same numerator plus round `a` by the
    /// span from the first to the last commit of the window's own vertices:
    /// a fence-post more than the intervals it spans, and one vertex riding
    /// in late through a weak edge stretches that span by seconds.
    fn throughput(&self) -> f64 {
        // Anchor round → time the last honest node committed it.
        let mut anchors: BTreeMap<u64, Micros> = BTreeMap::new();
        let mut common_last = u64::MAX;
        for (_, node) in self.honest_nodes() {
            for c in &node.committed_log {
                let at = anchors.entry(c.leader_round.0).or_insert(Micros::ZERO);
                *at = (*at).max(c.committed_at);
            }
            let last = node.committed_log.last().map_or(0, |c| c.leader_round.0);
            common_last = common_last.min(last);
        }
        let last = self.w.last_measured_round().min(common_last);
        let mut window = anchors.range(self.w.warmup_rounds..=last);
        let (Some((&a, &start)), Some((&b, &end))) = (window.next(), window.next_back()) else {
            return 0.0;
        };
        let txs: u64 = self
            .honest_nodes()
            .flat_map(|(_, n)| &n.proposed_batches)
            .filter(|p| p.vertex.round.0 > a && p.vertex.round.0 <= b)
            .filter(|p| self.everywhere.contains_key(&p.vertex))
            .map(|p| u64::from(p.count))
            .sum();
        txs as f64 / end.saturating_sub(start).as_secs_f64()
    }

    /// Longest simulated interval, between the first and the last commit
    /// of the run, in which no honest node committed anything.
    fn max_commit_gap(&self) -> Micros {
        let mut instants: Vec<Micros> = self
            .honest_nodes()
            .flat_map(|(_, n)| n.committed_log.iter().map(|c| c.committed_at))
            .collect();
        instants.sort_unstable();
        instants
            .windows(2)
            .map(|p| p[1].saturating_sub(p[0]))
            .max()
            .unwrap_or(Micros::ZERO)
    }

    /// Restart → the first commit of the restarted node whose sequence
    /// number is no lower than what the slowest honest node had committed
    /// by the same instant.
    fn recovery(&self) -> Option<Micros> {
        let victim = self.w.victim(self.spec)?;
        let restart_at = self.w.restart?.restart_at;
        // Per honest node: (commit time, next sequence after it), ascending.
        let frontiers: Vec<Vec<(Micros, u64)>> = self
            .honest_nodes()
            .map(|(_, n)| {
                n.committed_log
                    .iter()
                    .map(|c| (c.committed_at, c.sequence + 1))
                    .collect()
            })
            .collect();
        let slowest_at = |t: Micros| {
            frontiers
                .iter()
                .map(|f| match f.partition_point(|e| e.0 <= t) {
                    0 => 0,
                    i => f[i - 1].1,
                })
                .min()
                .unwrap_or(0)
        };
        self.node(victim)
            .committed_log
            .iter()
            .find(|c| c.committed_at >= restart_at && c.sequence + 1 >= slowest_at(c.committed_at))
            .map(|c| c.committed_at.saturating_sub(restart_at))
    }

    /// The output audit. Every violation names the invariant it broke.
    fn audit(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let w = self.w;

        // 1. Agreement: wherever two parties emitted the same sequence
        // number they emitted the same vertex (for parties that never
        // restarted this is exactly prefix-identical logs). The restarted
        // party is held to it too.
        let mut order: HashMap<u64, VertexRef> = HashMap::new();
        let victim = w.victim(self.spec);
        let everyone = self
            .built
            .honest
            .iter()
            .copied()
            .chain(victim)
            .map(|p| (p, self.node(p)));
        for (p, node) in everyone {
            for c in &node.committed_log {
                let agreed = *order.entry(c.sequence).or_insert(c.vertex);
                if agreed != c.vertex {
                    bad.push(format!(
                        "agreement: {p} committed {:?} at sequence {}, another party {agreed:?}",
                        c.vertex, c.sequence
                    ));
                    break;
                }
            }
        }
        for (p, node) in self.honest_nodes() {
            if node.commit_seq_base() != 0
                || node
                    .committed_log
                    .iter()
                    .enumerate()
                    .any(|(i, c)| c.sequence != i as u64)
            {
                bad.push(format!("agreement: {p}'s log is not a gap-free prefix"));
            }
            if node.round().0 < w.rounds {
                bad.push(format!(
                    "liveness: {p} stopped at round {} of {}",
                    node.round().0,
                    w.rounds
                ));
            }
        }

        // 2. Exactly-once on the open loop: every admitted transaction was
        // pulled into one proposal and committed once, pools drained.
        if w.open_rate_tps.is_some() {
            for (p, node) in self.honest_nodes() {
                if let Err(e) = self.exactly_once(p, node) {
                    bad.push(format!("exactly-once: {p}: {e}"));
                }
            }
        }

        // 3. Recovery: the victim rebuilt from disk, resumed gap-free at
        // its durable frontier and reached the final round.
        if let Some(v) = victim {
            let node = self.node(v);
            if !node.recovered() {
                bad.push(format!("recovery: {v} did not rebuild from its WAL"));
            }
            if node.committed_log.is_empty() {
                bad.push(format!("recovery: {v} committed nothing after its restart"));
            }
            let base = node.commit_seq_base();
            if let Some((i, _)) = node
                .committed_log
                .iter()
                .enumerate()
                .find(|(i, c)| c.sequence != base + *i as u64)
            {
                bad.push(format!("recovery: {v} has a sequence gap at log index {i}"));
            }
            if node.round().0 < w.rounds {
                bad.push(format!(
                    "recovery: {v} stopped at round {} of {}",
                    node.round().0,
                    w.rounds
                ));
            }
        }

        // 4. Benign workloads never time out and never record evidence.
        // Without a recorder a timeout shows as a skipped leader: a round
        // whose leader vertex no commit anchors on. (Timeouts for rounds
        // past `rounds` are the run's end, not a fault: proposing has
        // stopped, so every round timer eventually fires.)
        if w.benign() {
            for (p, node) in self.honest_nodes() {
                let mut anchors = node.committed_log.iter().map(|c| c.leader_round.0);
                let mut prev = anchors.next();
                for r in anchors {
                    if prev.is_some_and(|p| r > p + 1) {
                        bad.push(format!(
                            "benign: consensus.timeouts != 0: {p} skipped the leader of round {}",
                            r - 1
                        ));
                        break;
                    }
                    prev = Some(r);
                }
            }
        }
        for (p, node) in self.honest_nodes() {
            if !node.evidence().is_empty() {
                bad.push(format!(
                    "evidence: {p} recorded {} misbehaviour proofs in a run without Byzantine parties",
                    node.evidence().len()
                ));
            }
        }
        bad
    }

    fn exactly_once(&self, p: PartyId, node: &SailfishNode) -> Result<(), String> {
        let ingress = node.ingress().ok_or("proposer without an ingress")?;
        let stats = ingress.pool().stats();
        if stats.admitted != stats.pulled {
            return Err(format!(
                "{} admitted but {} pulled",
                stats.admitted, stats.pulled
            ));
        }
        if !ingress.pool().is_empty() || ingress.in_flight_txs() != 0 {
            return Err(format!(
                "{} queued and {} in flight at end of run",
                ingress.pool().depth(),
                ingress.in_flight_txs()
            ));
        }
        let mut seen = vec![false; stats.pulled as usize];
        for c in node.committed_log.iter().filter(|c| c.vertex.source == p) {
            let block = node
                .held_block(&c.vertex)
                .ok_or_else(|| format!("own committed block {:?} not held", c.vertex))?;
            for b in &block.batches {
                for seq in b.first_seq..b.first_seq + u64::from(b.count) {
                    match seen.get_mut(seq as usize) {
                        None => return Err(format!("committed seq {seq} was never pulled")),
                        Some(s) if *s => return Err(format!("seq {seq} committed twice")),
                        Some(s) => *s = true,
                    }
                }
            }
        }
        match seen.iter().filter(|s| !**s).count() {
            0 => Ok(()),
            missing => Err(format!("{missing} pulled transactions never committed")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(count: u64, latency_ms: Option<u64>) -> BatchOutcome {
        BatchOutcome {
            count,
            latency: latency_ms.map(Micros::from_millis),
        }
    }

    #[test]
    fn each_failure_is_counted_once() {
        let limit = Some(Micros::from_millis(3_000));
        // 10 ok, 4 over the limit, 6 never committed, 5 still queued
        // (admitted but in no batch), 3 rejected at admission.
        let f = account(
            [batch(10, Some(100)), batch(4, Some(3_001)), batch(6, None)],
            25,
            3,
            limit,
        );
        assert_eq!(f.attempted, 28);
        assert_eq!(f.rejected, 3);
        assert_eq!(f.over_limit, 4);
        assert_eq!(f.uncommitted, 11);
        assert_eq!(f.failed(), 18);
        assert!((f.fail_share() - 18.0 / 28.0).abs() < 1e-12);
    }

    #[test]
    fn the_limit_is_inclusive_and_optional() {
        let at_limit = [batch(7, Some(3_000))];
        let f = account(at_limit, 7, 0, Some(Micros::from_millis(3_000)));
        assert_eq!(f.failed(), 0);
        let slow = [batch(7, Some(60_000))];
        assert_eq!(account(slow, 7, 0, None).failed(), 0);
    }

    #[test]
    fn nothing_attempted_is_total_failure() {
        assert_eq!(account([], 0, 0, None).fail_share(), 1.0);
    }
}
