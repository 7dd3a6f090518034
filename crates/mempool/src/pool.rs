//! The bounded, lane-prioritised transaction pool.
//!
//! Admission is at-most-once and gap-free per client: a submission must
//! carry exactly the client's next sequence number, so a committed prefix
//! of a client's transactions can never hide a hole. Memory is bounded on
//! three axes — queued transactions, queued payload bytes, and the
//! per-client sequence table — and every bound rejects with a counter
//! instead of growing (backpressure, never OOM).

use crate::ClientId;
use clanbft_telemetry::{counters, Telemetry};
use clanbft_types::Micros;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

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
    /// The per-client sequence table is at capacity and this client is new.
    ClientTableFull,
}

/// A transaction sitting in the pool.
#[derive(Clone, Debug)]
pub struct PendingTx {
    /// The submitting client.
    pub client: ClientId,
    /// The client's sequence number.
    pub seq: u64,
    /// Wire size in bytes.
    pub tx_bytes: u32,
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
    /// Maximum distinct clients tracked in the sequence table.
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
    /// Rejections: client table at capacity.
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
    queued_bytes: usize,
    next_seq: HashMap<u64, u64>,
    stats: MempoolStats,
    telemetry: Telemetry,
}

impl Mempool {
    /// An empty pool with the given bounds.
    pub fn new(cfg: MempoolConfig, telemetry: Telemetry) -> Mempool {
        Mempool {
            cfg,
            lanes: Default::default(),
            queued_bytes: 0,
            next_seq: HashMap::new(),
            stats: MempoolStats::default(),
            telemetry,
        }
    }

    /// Transactions currently queued across all lanes.
    pub fn depth(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Transaction bytes currently queued.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes
    }

    /// True iff nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }

    /// Admission/drain statistics so far.
    pub fn stats(&self) -> MempoolStats {
        self.stats
    }

    /// The next sequence number expected from `client` (0 if unseen).
    pub fn expected_seq(&self, client: ClientId) -> u64 {
        self.next_seq.get(&client.0).copied().unwrap_or(0)
    }

    /// Distinct clients tracked in the sequence table.
    pub fn tracked_clients(&self) -> usize {
        self.next_seq.len()
    }

    /// Admits one submission at time `now`, or rejects it with backpressure.
    ///
    /// Deliberately *not* wrapped in a profiler scope: admission runs per
    /// transaction, and a scope here would cost more than the work it
    /// measures. The load generator scopes its admission loops instead
    /// (`mempool.admit` at batch granularity in `loadgen`).
    pub fn admit(&mut self, sub: Submission, now: Micros) -> Result<(), AdmitError> {
        // One probe of the sequence table per submission: the entry is
        // written only once every check has passed, so a rejection leaves
        // the table as it was (an unseen client is not even inserted).
        let (tracked, depth) = (self.next_seq.len(), self.depth());
        let entry = self.next_seq.entry(sub.client.0);
        let expected = match &entry {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(_) if tracked >= self.cfg.max_clients => {
                self.stats.rejected_client_cap += 1;
                self.telemetry.add(counters::MEMPOOL_REJECTED_CLIENT_CAP, 1);
                return Err(AdmitError::ClientTableFull);
            }
            Entry::Vacant(_) => 0,
        };
        if sub.seq < expected {
            self.stats.rejected_duplicate += 1;
            self.telemetry.add(counters::MEMPOOL_REJECTED_DUPLICATE, 1);
            return Err(AdmitError::Duplicate);
        }
        if sub.seq > expected {
            self.stats.rejected_gap += 1;
            self.telemetry.add(counters::MEMPOOL_REJECTED_GAP, 1);
            return Err(AdmitError::Gap { expected });
        }
        if depth >= self.cfg.capacity_txs
            || self.queued_bytes + sub.tx_bytes as usize > self.cfg.capacity_bytes
        {
            self.stats.rejected_full += 1;
            self.telemetry.add(counters::MEMPOOL_REJECTED_FULL, 1);
            return Err(AdmitError::QueueFull);
        }
        *entry.or_insert(0) = expected + 1;
        self.queued_bytes += sub.tx_bytes as usize;
        self.lanes[sub.lane as usize].push_back(PendingTx {
            client: sub.client,
            seq: sub.seq,
            tx_bytes: sub.tx_bytes,
            arrived: now,
        });
        self.stats.admitted += 1;
        self.telemetry.add(counters::MEMPOOL_ADMITTED, 1);
        Ok(())
    }

    /// Pulls up to `max_txs` transactions in priority order (high lane
    /// first, FIFO within a lane), recording each transaction's queueing
    /// delay.
    pub fn pull(&mut self, max_txs: usize, now: Micros) -> Vec<PendingTx> {
        let mut out = Vec::with_capacity(max_txs.min(self.depth()));
        for lane in &mut self.lanes {
            while out.len() < max_txs {
                let Some(tx) = lane.pop_front() else { break };
                self.queued_bytes -= tx.tx_bytes as usize;
                self.telemetry.record(
                    counters::MEMPOOL_QUEUE_DELAY,
                    now.saturating_sub(tx.arrived).0,
                );
                out.push(tx);
            }
        }
        self.stats.pulled += out.len() as u64;
        self.telemetry
            .add(counters::MEMPOOL_PULLED, out.len() as u64);
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
        assert_eq!(p.admit(sub(1, 0), Micros(0)), Ok(()));
        assert_eq!(p.admit(sub(2, 0), Micros(0)), Ok(()));
        assert_eq!(
            p.admit(sub(3, 0), Micros(0)),
            Err(AdmitError::ClientTableFull)
        );
        // Known clients keep working at the cap.
        assert_eq!(p.admit(sub(1, 1), Micros(0)), Ok(()));
        assert_eq!(p.tracked_clients(), 2);
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
        assert_eq!(rec.counter(counters::MEMPOOL_PULLED), 3);
        assert_eq!(rec.counter(counters::MEMPOOL_ADMITTED), 5);
    }
}
