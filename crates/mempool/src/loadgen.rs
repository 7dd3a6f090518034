//! Workload generation and the per-node client ingress.
//!
//! [`ClientIngress`] is the proposer-side front door: it owns a bounded
//! [`Mempool`], a [`BatchSizer`], and a workload generator, and exposes the
//! four hooks the consensus node drives —
//!
//! 1. [`ClientIngress::poll`] — advance simulated client arrivals up to the
//!    current time and admit them (with backpressure);
//! 2. [`ClientIngress::pull`] — let the sizer choose a batch size from
//!    queue depth and proposal cadence, then drain that many transactions;
//! 3. [`ClientIngress::note_proposed`] — bind the pulled transactions to
//!    the vertex that carries them (in-flight tracking);
//! 4. [`ClientIngress::on_committed`] — commit feedback: closed-loop
//!    clients submit their next transaction the moment the previous one
//!    commits.
//!
//! Three workloads are provided. `Synthetic` reproduces the repo's
//! historical fixed-size payload generation (arrivals at the four quarter
//! midpoints of the inter-proposal gap). `OpenLoop` submits at a fixed
//! rate from a Zipf-skewed population of simulated clients regardless of
//! commit progress — the workload that exercises backpressure. `ClosedLoop`
//! keeps a fixed number of outstanding transactions per client — the
//! workload whose every admitted transaction must commit exactly once.

use crate::pool::{Lane, Mempool, MempoolConfig, PendingTx, Submission};
use crate::sizer::{BatchSizer, SizerConfig};
use crate::ClientId;
use clanbft_crypto::ClanRng;
use clanbft_telemetry::{counters, Telemetry};
use clanbft_types::{Micros, VertexRef};
use std::collections::HashMap;
use std::sync::Arc;

/// The synthetic workload's single implicit client.
const SYNTHETIC_CLIENT: ClientId = ClientId(0);

/// Number of arrival stamps the synthetic workload spreads a proposal's
/// transactions across (matches the historical quarter-midpoint model).
const SYNTHETIC_QUARTERS: u32 = 4;

/// What traffic a proposer's ingress generates.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// Fixed transaction count per proposal, arrivals spread across the
    /// quarter midpoints of the inter-proposal gap (the repo's historical
    /// synthetic model; bypasses the dynamic sizer).
    Synthetic {
        /// Transactions generated per proposal.
        txs_per_proposal: u32,
    },
    /// Fixed aggregate submission rate from a Zipf-skewed client
    /// population, independent of commit progress.
    OpenLoop {
        /// Aggregate submission rate (transactions per second) at this node.
        rate_tps: f64,
        /// Simulated client population size.
        clients: u64,
        /// Zipf skew exponent (0 = uniform; YCSB uses 0.99).
        zipf_s: f64,
        /// Stop generating arrivals once this round is reached, letting the
        /// queue drain before the run ends.
        stop_at_round: u64,
    },
    /// Every client keeps `outstanding` transactions in flight, submitting
    /// the next one when the previous commits.
    ClosedLoop {
        /// Simulated client population size.
        clients: u64,
        /// Transactions each client keeps outstanding.
        outstanding: u32,
        /// Stop resubmitting once this round is reached, letting the
        /// queue drain before the run ends.
        stop_at_round: u64,
    },
}

/// YCSB-style Zipf-distributed index generator over `0..n`.
///
/// Rank 0 is the hottest client. Uses the Gray et al. rejection-free
/// inversion with a precomputed zeta sum, so drawing is O(1) after an O(n)
/// setup.
#[derive(Clone, Debug)]
pub struct ZipfGen {
    n: u64,
    zetan: f64,
    eta: f64,
    alpha: f64,
    half_pow_s: f64,
}

impl ZipfGen {
    /// A generator over `0..n` with skew exponent `s` (`s = 0` is uniform).
    pub fn new(n: u64, s: f64) -> ZipfGen {
        let n = n.max(1);
        // The inversion has a pole at s = 1; nudge off it.
        let s = if (s - 1.0).abs() < 1e-6 { 0.999_999 } else { s };
        let zetan = zeta(n, s);
        let zeta2 = zeta(2.min(n), s);
        let alpha = 1.0 / (1.0 - s);
        let eta = if n > 1 {
            (1.0 - (2.0 / n as f64).powf(1.0 - s)) / (1.0 - zeta2 / zetan)
        } else {
            0.0
        };
        ZipfGen {
            n,
            zetan,
            eta,
            alpha,
            half_pow_s: 0.5f64.powf(s),
        }
    }

    /// Draws the next index in `0..n`.
    pub fn next(&self, rng: &mut ClanRng) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_s {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

/// Truncated zeta sum `Σ_{i=1..n} i^{-s}`.
fn zeta(n: u64, s: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(s);
    }
    sum
}

/// A [`WorkloadSpec`] with the Zipf generator it derives. Clones share the
/// generator, whose normaliser sums `clients` powers: a tribe builds it
/// once, not once per proposer.
#[derive(Clone, Debug)]
pub struct Workload {
    spec: WorkloadSpec,
    zipf: Option<Arc<ZipfGen>>,
}

impl Workload {
    /// The spec this workload was built from.
    pub fn spec(&self) -> WorkloadSpec {
        self.spec
    }
}

impl From<WorkloadSpec> for Workload {
    fn from(spec: WorkloadSpec) -> Workload {
        let zipf = match spec {
            WorkloadSpec::OpenLoop {
                clients, zipf_s, ..
            } => Some(Arc::new(ZipfGen::new(clients, zipf_s))),
            _ => None,
        };
        Workload { spec, zipf }
    }
}

/// A planned sub-batch: pulled runs sharing an arrival stamp and wire
/// size, ready to become one `TxBatch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPlan {
    /// Transactions in the plan.
    pub count: u32,
    /// Wire size of each transaction.
    pub tx_bytes: u32,
    /// Earliest arrival stamp in the plan (latency measurement anchor).
    pub created_at: Micros,
}

/// Coalesces pulled runs into at most `max_batches` plans.
///
/// Consecutive runs sharing `(arrived, tx_bytes)` form one group. Of more
/// groups than `max_batches`, up to `groups − max_batches` merges are made
/// greedily from the left: the plan being built absorbs each following
/// same-size group while merges remain (the earliest arrival stamp wins,
/// biasing measured latency pessimistically). Groups of different sizes
/// never merge, so the result may still exceed `max_batches`.
pub fn plan_batches(pulled: &[PendingTx], max_batches: usize) -> Vec<BatchPlan> {
    let _prof = clanbft_profiler::scope("mempool.plan_batches");
    let groups = || pulled.chunk_by(|a, b| (a.arrived, a.tx_bytes) == (b.arrived, b.tx_bytes));
    let total = groups().count();
    let mut merges = total.saturating_sub(max_batches.max(1));
    let mut plans: Vec<BatchPlan> = Vec::with_capacity(total - merges);
    for group in groups() {
        let (count, tx) = (group.iter().map(|r| r.count).sum(), &group[0]);
        match plans.last_mut() {
            Some(p) if merges > 0 && p.tx_bytes == tx.tx_bytes => {
                merges -= 1;
                p.count += count;
                p.created_at = p.created_at.min(tx.arrived);
            }
            _ => plans.push(BatchPlan {
                count,
                tx_bytes: tx.tx_bytes,
                created_at: tx.arrived,
            }),
        }
    }
    plans
}

/// The proposer-side client ingress: workload generator, bounded pool,
/// dynamic sizer and in-flight tracking, driven by the consensus node.
pub struct ClientIngress {
    workload: Workload,
    tx_bytes: u32,
    /// The pool; its sequence table is every client's cursor (see `submit`).
    pool: Mempool,
    sizer: BatchSizer,
    rng: ClanRng,
    /// Per proposed, uncommitted vertex: how many transactions it carries,
    /// and their runs if the closed loop resubmits for them on commit.
    in_flight: HashMap<VertexRef, (usize, Vec<PendingTx>)>,
    /// Runs pulled but not yet bound to a vertex (between `pull` and
    /// `note_proposed`).
    last_pulled: Vec<PendingTx>,
    /// Fractional open-loop arrivals carried into the next poll window.
    carry: f64,
    seeded: bool,
    stopped: bool,
    telemetry: Telemetry,
}

impl ClientIngress {
    /// An ingress for one proposer. `seed` derives the deterministic
    /// arrival randomness; `tx_bytes` is the simulated wire size of every
    /// generated transaction.
    pub fn new(
        workload: impl Into<Workload>,
        tx_bytes: u32,
        pool_cfg: MempoolConfig,
        sizer_cfg: SizerConfig,
        seed: u64,
        telemetry: Telemetry,
    ) -> ClientIngress {
        ClientIngress {
            workload: workload.into(),
            tx_bytes,
            pool: Mempool::new(pool_cfg, telemetry.clone()),
            sizer: BatchSizer::new(sizer_cfg),
            rng: ClanRng::seed_from_u64(seed),
            in_flight: HashMap::new(),
            last_pulled: Vec::new(),
            carry: 0.0,
            seeded: false,
            stopped: false,
            telemetry,
        }
    }

    /// The underlying pool (stats, depth, expected sequence numbers).
    pub fn pool(&self) -> &Mempool {
        &self.pool
    }

    /// The dynamic sizer (current cap, smoothed cadence).
    pub fn sizer(&self) -> &BatchSizer {
        &self.sizer
    }

    /// Transactions pulled into proposals that have not committed yet.
    pub fn in_flight_txs(&self) -> usize {
        let pulled = self.last_pulled.iter().map(|r| r.count as usize);
        self.in_flight.values().map(|(n, _)| n).sum::<usize>() + pulled.sum::<usize>()
    }

    /// True once the workload passed its stop round and generates nothing.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Advances simulated client arrivals over `(from, to]` and admits
    /// them. `round` is the proposer's current round, used only to stop
    /// generation at the workload's configured stop round.
    pub fn poll(&mut self, from: Micros, to: Micros, round: u64) {
        let _prof = clanbft_profiler::scope("mempool.poll");
        match self.workload.spec {
            WorkloadSpec::Synthetic { txs_per_proposal } => {
                self.poll_synthetic(from, to, txs_per_proposal);
            }
            WorkloadSpec::OpenLoop {
                rate_tps,
                stop_at_round,
                ..
            } => {
                if round >= stop_at_round {
                    self.stopped = true;
                }
                if !self.stopped {
                    self.poll_open_loop(from, to, rate_tps);
                }
            }
            WorkloadSpec::ClosedLoop {
                clients,
                outstanding,
                stop_at_round,
            } => {
                if round >= stop_at_round {
                    self.stopped = true;
                }
                if !self.seeded && !self.stopped {
                    self.seeded = true;
                    for c in 0..clients {
                        for _ in 0..outstanding {
                            submit(&mut self.pool, self.tx_bytes, ClientId(c), Lane::Normal, to);
                        }
                    }
                }
            }
        }
    }

    /// Chooses a batch size from queue depth and proposal cadence, drains
    /// that many transactions and returns their runs. The synthetic workload
    /// bypasses the sizer and drains everything (fixed-size proposals).
    pub fn pull(&mut self, now: Micros, gap_since_last: Micros) -> &[PendingTx] {
        let _prof = clanbft_profiler::scope("mempool.pull");
        let depth = self.pool.depth();
        let chosen = match self.workload.spec {
            WorkloadSpec::Synthetic { .. } => depth,
            _ => self.sizer.choose(depth, gap_since_last) as usize,
        };
        let pulled = self.pool.pull(chosen, now);
        self.telemetry
            .gauge(counters::BUF_MEMPOOL_DEPTH, self.pool.depth() as u64);
        self.last_pulled = pulled;
        &self.last_pulled
    }

    /// Binds the most recent pull to the vertex that carries it (`in_flight`).
    pub fn note_proposed(&mut self, vref: VertexRef) {
        if self.last_pulled.is_empty() {
            return;
        }
        let mut runs = std::mem::take(&mut self.last_pulled);
        let txs = runs.iter().map(|r| r.count as usize).sum();
        if !matches!(self.workload.spec, WorkloadSpec::ClosedLoop { .. }) {
            runs = Vec::new();
        }
        self.in_flight.insert(vref, (txs, runs));
    }

    /// Commit feedback for one of this proposer's own vertices: releases
    /// its in-flight transactions, and — for closed-loop clients that have
    /// not been stopped — submits each client's next transaction at the
    /// commit time.
    pub fn on_committed(&mut self, vref: VertexRef, now: Micros) {
        let Some((_, runs)) = self.in_flight.remove(&vref) else {
            return;
        };
        if self.stopped {
            return;
        }
        for run in runs {
            for _ in 0..run.count {
                submit(&mut self.pool, self.tx_bytes, run.client, Lane::Normal, now);
            }
        }
    }

    /// Historical synthetic model: `t` transactions per proposal, arrivals
    /// at the quarter midpoints of the inter-proposal gap (so queueing
    /// delay averages half the gap, exactly as the old in-node generator
    /// stamped its sub-batches).
    fn poll_synthetic(&mut self, from: Micros, to: Micros, t: u32) {
        // Batch-granularity scope: one entry per poll covers the whole
        // admission loop (scoping `Mempool::admit` itself would cost more
        // than the admission it measures).
        let _prof = clanbft_profiler::scope("mempool.admit");
        let gap = to.saturating_sub(from);
        let base = t / SYNTHETIC_QUARTERS;
        let rem = t % SYNTHETIC_QUARTERS;
        for q in 0..SYNTHETIC_QUARTERS {
            let count = base + u32::from(q < rem);
            let age = gap.0 * (2 * u64::from(SYNTHETIC_QUARTERS - q) - 1)
                / (2 * u64::from(SYNTHETIC_QUARTERS));
            let arrived = to.saturating_sub(Micros(age));
            for _ in 0..count {
                submit(
                    &mut self.pool,
                    self.tx_bytes,
                    SYNTHETIC_CLIENT,
                    Lane::Normal,
                    arrived,
                );
            }
        }
    }

    /// Open-loop arrivals: `rate_tps` evenly spaced over the window, with
    /// the fractional remainder carried forward so long runs hit the rate
    /// exactly. Clients are drawn Zipf-skewed; 10% of traffic rides the
    /// high-priority lane and 10% the low lane.
    fn poll_open_loop(&mut self, from: Micros, to: Micros, rate_tps: f64) {
        // Batch-granularity scope, mirroring `poll_synthetic`.
        let _prof = clanbft_profiler::scope("mempool.admit");
        let span = to.saturating_sub(from);
        let want = rate_tps * span.as_secs_f64() + self.carry;
        let n = want.floor() as u64;
        self.carry = want - n as f64;
        let zipf = self.workload.zipf.as_deref().expect("OpenLoop has one");
        for i in 0..n {
            let arrived = from + Micros(span.0 * i / n);
            let client = ClientId(zipf.next(&mut self.rng));
            let lane = match self.rng.next_f64() {
                r if r < 0.1 => Lane::High,
                r if r < 0.9 => Lane::Normal,
                _ => Lane::Low,
            };
            submit(&mut self.pool, self.tx_bytes, client, lane, arrived);
        }
    }
}

/// Offers `client`'s next transaction to the pool. The pool's sequence table
/// is the client's cursor and moves only on admission, so a rejected client
/// retries the same number later (the pool counts the rejection).
fn submit(pool: &mut Mempool, tx_bytes: u32, client: ClientId, lane: Lane, arrived: Micros) {
    let seq = pool.expected_seq(client);
    let sub = Submission {
        client,
        seq,
        tx_bytes,
        lane,
    };
    let _ = pool.admit(sub, arrived);
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_types::{PartyId, Round};

    fn vref(round: u64) -> VertexRef {
        VertexRef {
            round: Round(round),
            source: PartyId(0),
        }
    }

    fn ingress(workload: WorkloadSpec) -> ClientIngress {
        ClientIngress::new(
            workload,
            512,
            MempoolConfig::default(),
            SizerConfig::default(),
            7,
            Telemetry::null(),
        )
    }

    #[test]
    fn synthetic_reproduces_quarter_midpoint_batches() {
        let mut ing = ingress(WorkloadSpec::Synthetic {
            txs_per_proposal: 100,
        });
        // 4-second gap, as pinned by the historical node test.
        ing.poll(Micros(0), Micros::from_secs(4), 1);
        let pulled = ing
            .pull(Micros::from_secs(4), Micros::from_secs(4))
            .to_vec();
        // One run per quarter: each stamp's 25 transactions are one record.
        assert_eq!(pulled.len(), 4);
        assert_eq!(pulled.iter().map(|r| r.count).sum::<u32>(), 100);
        let plans = plan_batches(&pulled, 16);
        assert_eq!(plans.len(), 4);
        assert_eq!(
            plans.iter().map(|p| p.created_at.0).collect::<Vec<_>>(),
            vec![500_000, 1_500_000, 2_500_000, 3_500_000]
        );
        assert!(plans.iter().all(|p| p.count == 25 && p.tx_bytes == 512));
    }

    #[test]
    fn synthetic_splits_remainder_across_leading_quarters() {
        let mut ing = ingress(WorkloadSpec::Synthetic {
            txs_per_proposal: 10,
        });
        ing.poll(Micros(0), Micros::from_secs(4), 1);
        let pulled = ing
            .pull(Micros::from_secs(4), Micros::from_secs(4))
            .to_vec();
        let counts: Vec<u32> = plan_batches(&pulled, 16).iter().map(|p| p.count).collect();
        assert_eq!(counts, vec![3, 3, 2, 2]);
    }

    #[test]
    fn open_loop_hits_the_rate_with_fractional_carry() {
        let mut ing = ingress(WorkloadSpec::OpenLoop {
            rate_tps: 333.0,
            clients: 100,
            zipf_s: 0.99,
            stop_at_round: 1000,
        });
        // 100 windows of 10ms = 1s total → 333 arrivals (+/- one carry).
        for w in 0..100u64 {
            ing.poll(
                Micros::from_millis(w * 10),
                Micros::from_millis((w + 1) * 10),
                w,
            );
        }
        let admitted = ing.pool().stats().admitted;
        assert!(
            (332..=334).contains(&admitted),
            "expected ~333 arrivals, got {admitted}"
        );
    }

    #[test]
    fn open_loop_stops_generating_at_the_stop_round() {
        let mut ing = ingress(WorkloadSpec::OpenLoop {
            rate_tps: 10_000.0,
            clients: 10,
            zipf_s: 0.0,
            stop_at_round: 3,
        });
        ing.poll(Micros(0), Micros::from_millis(10), 1);
        let before = ing.pool().stats().admitted;
        assert!(before > 0);
        ing.poll(Micros::from_millis(10), Micros::from_millis(20), 3);
        assert!(ing.stopped());
        assert_eq!(ing.pool().stats().admitted, before);
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let zipf = ZipfGen::new(1000, 0.99);
        let mut rng = ClanRng::seed_from_u64(42);
        let mut hot = 0u32;
        let mut cold = 0u32;
        for _ in 0..10_000 {
            let v = zipf.next(&mut rng);
            assert!(v < 1000);
            if v < 10 {
                hot += 1;
            }
            if v >= 500 {
                cold += 1;
            }
        }
        assert!(
            hot > 3000,
            "zipf(0.99): top-1% of clients should draw >30% of traffic, got {hot}"
        );
        assert!(hot > cold * 3);
    }

    #[test]
    fn zipf_with_zero_skew_is_roughly_uniform() {
        let zipf = ZipfGen::new(10, 0.0);
        let mut rng = ClanRng::seed_from_u64(1);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[zipf.next(&mut rng) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!((700..=1300).contains(c), "client {i} drew {c}/10000 at s=0");
        }
    }

    #[test]
    fn closed_loop_holds_outstanding_constant() {
        let mut ing = ingress(WorkloadSpec::ClosedLoop {
            clients: 50,
            outstanding: 2,
            stop_at_round: 100,
        });
        ing.poll(Micros(0), Micros(0), 0);
        assert_eq!(ing.pool().depth(), 100);
        // Pull a proposal, bind it, commit it: every pulled client submits
        // its next transaction, so queued + in-flight stays at 100.
        let mut now = Micros::from_millis(1);
        for round in 1..=20u64 {
            ing.poll(now, now + Micros::from_millis(1), round);
            now += Micros::from_millis(1);
            let pulled = ing.pull(now, Micros::from_millis(1)).len();
            if pulled > 0 {
                ing.note_proposed(vref(round));
                ing.on_committed(vref(round), now + Micros::from_millis(2));
            }
            assert_eq!(
                ing.pool().depth() + ing.in_flight_txs(),
                100,
                "round {round}: closed loop must conserve outstanding txs"
            );
        }
        assert!(ing.pool().stats().pulled > 0);
    }

    #[test]
    fn closed_loop_drains_after_the_stop_round() {
        let mut ing = ingress(WorkloadSpec::ClosedLoop {
            clients: 10,
            outstanding: 1,
            stop_at_round: 5,
        });
        ing.poll(Micros(0), Micros(0), 0);
        ing.poll(Micros(0), Micros(1), 6); // past the stop round
        let mut now = Micros(2);
        let mut round = 6;
        while ing.pool().depth() > 0 {
            let pulled = ing.pull(now, Micros(1)).len();
            assert!(pulled > 0, "sizer must keep draining a non-empty queue");
            ing.note_proposed(vref(round));
            ing.on_committed(vref(round), now);
            round += 1;
            now += Micros(1);
        }
        assert_eq!(ing.in_flight_txs(), 0);
        let stats = ing.pool().stats();
        assert_eq!(stats.admitted, stats.pulled);
        assert_eq!(stats.admitted, 10);
    }

    #[test]
    fn rejected_submission_does_not_advance_the_cursor() {
        let mut ing = ClientIngress::new(
            WorkloadSpec::ClosedLoop {
                clients: 3,
                outstanding: 1,
                stop_at_round: 100,
            },
            512,
            MempoolConfig {
                capacity_txs: 2,
                ..MempoolConfig::default()
            },
            SizerConfig::default(),
            7,
            Telemetry::null(),
        );
        // Clients 0 and 1 fill the pool; client 2 meets backpressure.
        ing.poll(Micros(0), Micros(0), 0);
        assert_eq!(ing.pool().stats().rejected_full, 1);
        assert_eq!(ing.pool().tracked_clients(), 2, "client 2 is not tracked");
        assert_eq!(ing.pool().expected_seq(ClientId(2)), 0, "cursor unmoved");
        // A duplicate and a gap leave a known client's cursor alone too.
        let probe = |seq| Submission {
            client: ClientId(0),
            seq,
            tx_bytes: 512,
            lane: Lane::Normal,
        };
        assert!(ing.pool.admit(probe(0), Micros(1)).is_err());
        assert!(ing.pool.admit(probe(5), Micros(1)).is_err());
        assert_eq!(ing.pool().expected_seq(ClientId(0)), 1);
        // Once space frees up the same sequence number is admitted.
        assert_eq!(ing.pull(Micros(2), Micros(1)).len(), 2);
        submit(&mut ing.pool, 512, ClientId(2), Lane::Normal, Micros(3));
        assert_eq!(ing.pool().expected_seq(ClientId(2)), 1);
        assert_eq!(ing.pool().tracked_clients(), 3);
        assert_eq!(ing.pool().stats().admitted, 3);
    }

    #[test]
    fn same_seed_same_arrivals() {
        let spec = WorkloadSpec::OpenLoop {
            rate_tps: 5000.0,
            clients: 1000,
            zipf_s: 0.9,
            stop_at_round: 100,
        };
        let mut a = ingress(spec);
        let mut b = ingress(spec);
        for w in 0..10u64 {
            a.poll(Micros(w * 1000), Micros((w + 1) * 1000), w);
            b.poll(Micros(w * 1000), Micros((w + 1) * 1000), w);
        }
        let pa = a.pull(Micros(10_000), Micros(1000)).to_vec();
        let pb = b.pull(Micros(10_000), Micros(1000)).to_vec();
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!((x.client, x.seq, x.arrived), (y.client, y.seq, y.arrived));
        }
    }

    #[test]
    fn plan_batches_merges_down_to_the_cap() {
        let txs: Vec<PendingTx> = (0..40)
            .map(|i| PendingTx {
                client: ClientId(i),
                seq: 0,
                tx_bytes: 256,
                count: 1,
                arrived: Micros(i), // every tx a distinct stamp → 40 groups
            })
            .collect();
        let plans = plan_batches(&txs, 16);
        assert_eq!(plans.len(), 16);
        assert_eq!(plans.iter().map(|p| p.count).sum::<u32>(), 40);
        // Earliest stamp survives each merge.
        assert_eq!(plans[0].created_at, Micros(0));
    }

    #[test]
    fn plan_batches_never_mixes_wire_sizes() {
        let txs: Vec<PendingTx> = (0..4)
            .map(|i| PendingTx {
                client: ClientId(i),
                seq: 0,
                tx_bytes: if i % 2 == 0 { 128 } else { 512 },
                count: 1,
                arrived: Micros(5),
            })
            .collect();
        let plans = plan_batches(&txs, 1);
        // Alternating sizes cannot merge below 4 groups even with cap 1.
        assert_eq!(plans.len(), 4);
        assert!(plans.iter().all(|p| p.count == 1));
    }
}
