//! The bounded, lane-prioritised transaction pool.
//!
//! Admission is at-most-once and gap-free per client: a submission must
//! carry exactly the client's next sequence number, so a committed prefix
//! of a client's transactions can never hide a hole. Memory is bounded on
//! three axes — queued transactions, queued payload bytes, and the
//! per-client sequence table (a vector addressed by [`ClientId`]) — and
//! every bound rejects with a counter instead of growing (backpressure,
//! never OOM).

use crate::ClientId;
use clanbft_telemetry::{counters, Telemetry};
use clanbft_types::Micros;
use std::collections::VecDeque;

/// Priority lane of a submission. Lower index drains first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
pub enum Lane {
    /// Latency-sensitive traffic, drained before everything else.
    High = 0,
    /// The default lane.
    #[default]
    Normal = 1,
    /// Bulk traffic, drained only when the faster lanes are empty.
    Low = 2,
}

/// Number of lanes (array size for the per-lane queues).
pub const LANES: usize = 3;

/// One client submission presented for admission.
#[derive(Clone, Debug)]
pub struct Submission {
    /// The submitting client.
    pub client: ClientId,
    /// The client's sequence number for this transaction (must be exactly
    /// the next one the pool expects from this client).
    pub seq: u64,
    /// Wire size of the transaction in bytes.
    pub tx_bytes: u32,
    /// Priority lane.
    pub lane: Lane,
}

/// Why a submission was rejected. Every rejection ticks the matching
/// `mempool.rejected.*` counter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdmitError {
    /// The sequence number was already admitted (replay).
    Duplicate,
    /// The sequence number skips ahead of the expected one.
    Gap {
        /// The sequence number the pool expects from this client next.
        expected: u64,
    },
    /// The pool is at its transaction or byte capacity (backpressure).
    QueueFull,
    /// The client id is at or above `max_clients`, the sequence table's bound.
    ClientTableFull,
}

/// A run in the pool: one client's `count` consecutive transactions.
#[derive(Clone, Copy, Debug)]
pub struct PendingTx {
    /// The submitting client.
    pub client: ClientId,
    /// The client's sequence number of the run's first transaction.
    pub seq: u64,
    /// Wire size in bytes of each transaction.
    pub tx_bytes: u32,
    /// Transactions in the run (at least one).
    pub count: u32,
    /// Admission time (queue-delay measurement starts here).
    pub arrived: Micros,
}

/// Capacity knobs. Every axis is a hard bound with reject-on-full
/// semantics.
#[derive(Clone, Copy, Debug)]
pub struct MempoolConfig {
    /// Maximum queued transactions across all lanes.
    pub capacity_txs: usize,
    /// Maximum queued transaction bytes across all lanes.
    pub capacity_bytes: usize,
    /// Bound on client ids: the sequence table holds `0..max_clients`.
    pub max_clients: usize,
}

impl Default for MempoolConfig {
    fn default() -> MempoolConfig {
        MempoolConfig {
            capacity_txs: 200_000,
            capacity_bytes: 256 << 20,
            max_clients: 4_000_000,
        }
    }
}

/// Admission and drain statistics, readable without telemetry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MempoolStats {
    /// Transactions admitted.
    pub admitted: u64,
    /// Transactions pulled into proposals.
    pub pulled: u64,
    /// Rejections: replayed sequence number.
    pub rejected_duplicate: u64,
    /// Rejections: sequence number gap.
    pub rejected_gap: u64,
    /// Rejections: pool at capacity.
    pub rejected_full: u64,
    /// Rejections: client id outside the sequence table.
    pub rejected_client_cap: u64,
}

impl MempoolStats {
    /// Total rejections across all causes.
    pub fn rejected(&self) -> u64 {
        self.rejected_duplicate + self.rejected_gap + self.rejected_full + self.rejected_client_cap
    }
}

/// The bounded transaction pool.
pub struct Mempool {
    cfg: MempoolConfig,
    lanes: [VecDeque<PendingTx>; LANES],
    /// Most runs each lane held at a pull of the current window.
    high_water: [usize; LANES],
    /// Pulls in the current window.
    pulls: usize,
    depth: usize,
    queued_bytes: usize,
    /// Next sequence number per client, indexed by `ClientId`.
    next_seq: Vec<u64>,
    stats: MempoolStats,
    telemetry: Telemetry,
}

impl Mempool {
    /// Pulls per window over which a lane's high-water mark is taken.
    pub const SHRINK_WINDOW: usize = 8;
    /// Runs of storage a lane keeps however quiet it is.
    pub const LANE_FLOOR: usize = 64;

    /// An empty pool with the given bounds.
    pub fn new(cfg: MempoolConfig, telemetry: Telemetry) -> Mempool {
        Mempool {
            cfg,
            lanes: Default::default(),
            high_water: [0; LANES],
            pulls: 0,
            depth: 0,
            queued_bytes: 0,
            next_seq: Vec::new(),
            stats: MempoolStats::default(),
            telemetry,
        }
    }

    /// Transactions currently queued across all lanes.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Runs currently queued across all lanes.
    pub fn queued_runs(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Runs the lanes have storage for, across all lanes.
    pub fn lane_capacity(&self) -> usize {
        self.lanes.iter().map(VecDeque::capacity).sum()
    }

    /// Transaction bytes currently queued.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// True iff nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.depth == 0
    }

    /// Admission/drain statistics so far.
    pub fn stats(&self) -> MempoolStats {
        self.stats
    }

    /// The next sequence number expected from `client` (0 if unseen).
    pub fn expected_seq(&self, client: ClientId) -> u64 {
        usize::try_from(client.0)
            .ok()
            .and_then(|i| self.next_seq.get(i))
            .map_or(0, |&next| next)
    }

    /// Distinct clients admitted at least once.
    pub fn tracked_clients(&self) -> usize {
        self.next_seq.iter().filter(|&&next| next > 0).count()
    }

    /// Admits one submission at time `now`, or rejects it with backpressure.
    ///
    /// Deliberately *not* wrapped in a profiler scope: admission runs per
    /// transaction, and a scope here would cost more than the work it
    /// measures. The load generator scopes its admission loops instead
    /// (`mempool.admit` at batch granularity in `loadgen`).
    pub fn admit(&mut self, sub: Submission, now: Micros) -> Result<(), AdmitError> {
        // One indexed load of the sequence table per submission: the slot is
        // written only once every check has passed, so a rejection leaves
        // the table as it was (it does not even grow).
        let Some(slot) = usize::try_from(sub.client.0)
            .ok()
            .filter(|&i| i < self.cfg.max_clients)
        else {
            self.stats.rejected_client_cap += 1;
            return Err(AdmitError::ClientTableFull);
        };
        let expected = self.next_seq.get(slot).copied().unwrap_or(0);
        if sub.seq < expected {
            self.stats.rejected_duplicate += 1;
            return Err(AdmitError::Duplicate);
        }
        if sub.seq > expected {
            self.stats.rejected_gap += 1;
            return Err(AdmitError::Gap { expected });
        }
        if self.depth >= self.cfg.capacity_txs
            || self.queued_bytes + sub.tx_bytes as usize > self.cfg.capacity_bytes
        {
            self.stats.rejected_full += 1;
            self.telemetry.add(counters::MEMPOOL_REJECTED_FULL, 1);
            return Err(AdmitError::QueueFull);
        }
        if slot >= self.next_seq.len() {
            self.next_seq.resize(slot + 1, 0);
        }
        self.next_seq[slot] = expected + 1;
        self.depth += 1;
        self.queued_bytes += sub.tx_bytes as usize;
        let lane = &mut self.lanes[sub.lane as usize];
        let continues = |t: &&mut PendingTx| {
            (t.client, t.seq + u64::from(t.count), t.arrived, t.tx_bytes)
                == (sub.client, sub.seq, now, sub.tx_bytes)
                && t.count < u32::MAX
        };
        match lane.back_mut().filter(continues) {
            Some(tail) => tail.count += 1,
            None => lane.push_back(PendingTx {
                client: sub.client,
                seq: sub.seq,
                tx_bytes: sub.tx_bytes,
                count: 1,
                arrived: now,
            }),
        }
        self.stats.admitted += 1;
        self.telemetry.add(counters::MEMPOOL_ADMITTED, 1);
        Ok(())
    }

    /// Pulls up to `max_txs` transactions in priority order (high lane
    /// first, FIFO within a lane) as runs, splitting at most one at the cap,
    /// and records each transaction's queueing delay.
    ///
    /// A lane holds the most it will hold between two pulls as one begins,
    /// so the pulls see its high-water mark. Every [`Self::SHRINK_WINDOW`]
    /// pulls, a lane with storage for more than twice that mark (rounded up
    /// to a power of two, at least [`Self::LANE_FLOOR`]) gives the rest
    /// back: a backlog's storage goes by the end of the window after the
    /// one that drained it, and a steady load never reallocates.
    pub fn pull(&mut self, max_txs: usize, now: Micros) -> Vec<PendingTx> {
        let mut out = Vec::with_capacity(max_txs.min(self.queued_runs()));
        let mut left = max_txs.min(self.depth);
        (self.depth, self.stats.pulled) = (self.depth - left, self.stats.pulled + left as u64);
        self.pulls += 1;
        let window_ends = self.pulls == Self::SHRINK_WINDOW;
        for (lane, high_water) in self.lanes.iter_mut().zip(&mut self.high_water) {
            *high_water = (*high_water).max(lane.len());
            while let Some(front) = lane.front_mut().filter(|_| left > 0) {
                let n = left.min(front.count as usize) as u32;
                let run = PendingTx { count: n, ..*front };
                (front.seq, front.count) = (front.seq + u64::from(n), front.count - n);
                if front.count == 0 {
                    lane.pop_front();
                }
                left -= n as usize;
                self.queued_bytes -= n as usize * run.tx_bytes as usize;
                let delay = now.saturating_sub(run.arrived).0;
                for _ in 0..n {
                    self.telemetry.record(counters::MEMPOOL_QUEUE_DELAY, delay);
                }
                out.push(run);
            }
            if window_ends {
                let keep = high_water.next_power_of_two().max(Self::LANE_FLOOR);
                if lane.capacity() > 2 * keep {
                    lane.shrink_to(keep);
                }
                *high_water = 0;
            }
        }
        self.pulls %= Self::SHRINK_WINDOW;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sub(client: u64, seq: u64) -> Submission {
        Submission {
            client: ClientId(client),
            seq,
            tx_bytes: 512,
            lane: Lane::Normal,
        }
    }

    #[test]
    fn admission_is_gap_free_and_at_most_once() {
        let mut p = Mempool::new(MempoolConfig::default(), Telemetry::null());
        assert_eq!(p.admit(sub(1, 0), Micros(1)), Ok(()));
        assert_eq!(p.admit(sub(1, 0), Micros(2)), Err(AdmitError::Duplicate));
        assert_eq!(
            p.admit(sub(1, 5), Micros(3)),
            Err(AdmitError::Gap { expected: 1 })
        );
        assert_eq!(p.admit(sub(1, 1), Micros(4)), Ok(()));
        assert_eq!(p.depth(), 2);
        assert_eq!(p.stats().admitted, 2);
        assert_eq!(p.stats().rejected_duplicate, 1);
        assert_eq!(p.stats().rejected_gap, 1);
        assert_eq!(p.expected_seq(ClientId(1)), 2);
    }

    #[test]
    fn capacity_backpressure_rejects_without_growing() {
        let cfg = MempoolConfig {
            capacity_txs: 2,
            capacity_bytes: usize::MAX,
            max_clients: 100,
        };
        let mut p = Mempool::new(cfg, Telemetry::null());
        assert_eq!(p.admit(sub(1, 0), Micros(0)), Ok(()));
        assert_eq!(p.admit(sub(2, 0), Micros(0)), Ok(()));
        assert_eq!(p.admit(sub(3, 0), Micros(0)), Err(AdmitError::QueueFull));
        assert_eq!(p.depth(), 2);
        assert_eq!(p.stats().rejected_full, 1);
        // A rejected submission does not burn the client's sequence number:
        // the same (client, seq) is admitted once space frees up.
        p.pull(1, Micros(1));
        assert_eq!(p.admit(sub(3, 0), Micros(2)), Ok(()));
    }

    #[test]
    fn byte_capacity_is_enforced() {
        let cfg = MempoolConfig {
            capacity_txs: usize::MAX,
            capacity_bytes: 1000,
            max_clients: 100,
        };
        let mut p = Mempool::new(cfg, Telemetry::null());
        assert_eq!(p.admit(sub(1, 0), Micros(0)), Ok(()));
        assert_eq!(p.admit(sub(2, 0), Micros(0)), Err(AdmitError::QueueFull));
        assert_eq!(p.queued_bytes(), 512);
    }

    #[test]
    fn client_table_is_bounded() {
        let cfg = MempoolConfig {
            capacity_txs: usize::MAX,
            capacity_bytes: usize::MAX,
            max_clients: 2,
        };
        let mut p = Mempool::new(cfg, Telemetry::null());
        assert_eq!(p.admit(sub(0, 0), Micros(0)), Ok(()));
        assert_eq!(p.admit(sub(1, 0), Micros(0)), Ok(()));
        // The bound is on the id, not on how many clients came first.
        for id in [2, u64::MAX] {
            assert_eq!(
                p.admit(sub(id, 0), Micros(0)),
                Err(AdmitError::ClientTableFull)
            );
            assert_eq!(p.expected_seq(ClientId(id)), 0);
        }
        // Known clients keep working at the cap.
        assert_eq!(p.admit(sub(1, 1), Micros(0)), Ok(()));
        assert_eq!(p.tracked_clients(), 2);
        assert_eq!(p.stats().rejected_client_cap, 2);
    }

    #[test]
    fn lanes_drain_in_priority_order() {
        let mut p = Mempool::new(MempoolConfig::default(), Telemetry::null());
        for (i, lane) in [Lane::Low, Lane::High, Lane::Normal, Lane::High]
            .into_iter()
            .enumerate()
        {
            p.admit(
                Submission {
                    client: ClientId(i as u64),
                    seq: 0,
                    tx_bytes: 8,
                    lane,
                },
                Micros(i as u64),
            )
            .unwrap();
        }
        let pulled: Vec<u64> = p.pull(10, Micros(10)).iter().map(|t| t.client.0).collect();
        // High lane FIFO (clients 1, 3), then normal (2), then low (0).
        assert_eq!(pulled, vec![1, 3, 2, 0]);
        assert!(p.is_empty());
        assert_eq!(p.queued_bytes(), 0);
    }

    #[test]
    fn pull_respects_the_cap_and_counts_delay() {
        let (tel, rec) = Telemetry::mem();
        let mut p = Mempool::new(MempoolConfig::default(), tel);
        for c in 0..5 {
            p.admit(sub(c, 0), Micros(100)).unwrap();
        }
        let got = p.pull(3, Micros(400));
        assert_eq!(got.len(), 3);
        assert_eq!(p.depth(), 2);
        let h = rec.histogram(counters::MEMPOOL_QUEUE_DELAY).unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(p.stats().pulled, 3);
        assert_eq!(rec.counter(counters::MEMPOOL_ADMITTED), 5);
    }

    #[test]
    fn a_drained_lane_gives_back_its_backlog_storage_a_window_later() {
        let mut p = Mempool::new(MempoolConfig::default(), Telemetry::null());
        // A backlog of 5 000 runs (one stamp each), drained by one pull.
        for c in 0..5_000 {
            p.admit(sub(c, 0), Micros(c)).unwrap();
        }
        let grown = p.lane_capacity();
        assert!(grown >= 5_000);
        assert_eq!(p.pull(usize::MAX, Micros(9_000)).len(), 5_000);
        // The window that saw the backlog keeps its storage ...
        for _ in 1..Mempool::SHRINK_WINDOW {
            p.pull(usize::MAX, Micros(9_000));
        }
        assert_eq!(p.lane_capacity(), grown);
        // ... and a window of pulls of 100 runs gives back all but 128.
        for i in 0..Mempool::SHRINK_WINDOW as u64 {
            for c in 0..100 {
                p.admit(sub(c, i + 1), Micros(10_000 + i)).unwrap();
            }
            assert_eq!(p.pull(usize::MAX, Micros(10_000 + i)).len(), 100);
        }
        assert_eq!(p.lane_capacity(), 128);
        // A steady load at that mark never shrinks it again.
        for i in 0..3 * Mempool::SHRINK_WINDOW as u64 {
            for c in 0..100 {
                p.admit(sub(c, i + 9), Micros(20_000 + i)).unwrap();
            }
            p.pull(usize::MAX, Micros(20_000 + i));
        }
        assert_eq!(p.lane_capacity(), 128);
    }

    #[test]
    fn a_burst_is_one_run_and_a_pull_splits_it() {
        let (tel, rec) = Telemetry::mem();
        let mut p = Mempool::new(MempoolConfig::default(), tel);
        for seq in 0..5 {
            p.admit(sub(1, seq), Micros(100)).unwrap();
        }
        // Another stamp, another client or another size starts a new run.
        p.admit(sub(1, 5), Micros(101)).unwrap();
        p.admit(sub(2, 0), Micros(101)).unwrap();
        let wider = Submission {
            tx_bytes: 1024,
            ..sub(2, 1)
        };
        p.admit(wider, Micros(101)).unwrap();
        assert_eq!((p.queued_runs(), p.depth()), (4, 8));
        // A cap inside the first run splits it; the rest stays queued.
        let got = p.pull(3, Micros(400));
        assert_eq!(got.len(), 1);
        assert_eq!(
            (got[0].client, got[0].seq, got[0].count),
            (ClientId(1), 0, 3)
        );
        assert_eq!((p.queued_runs(), p.depth()), (4, 5));
        assert_eq!(p.queued_bytes(), 4 * 512 + 1024);
        let got = p.pull(3, Micros(400));
        let runs: Vec<_> = got.iter().map(|r| (r.client.0, r.seq, r.count)).collect();
        assert_eq!(runs, vec![(1, 3, 2), (1, 5, 1)]);
        // Every transaction, not every run, is one queue-delay sample.
        let h = rec.histogram(counters::MEMPOOL_QUEUE_DELAY).unwrap();
        assert_eq!(h.count(), 6);
        assert_eq!(p.stats().pulled, 6);
        assert_eq!(p.depth(), 2);
    }
}
