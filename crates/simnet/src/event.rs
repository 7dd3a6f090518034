//! The discrete-event queue: a calendar (bucketed) queue with deterministic
//! `(time, insertion-sequence)` ordering.
//!
//! Simulation events cluster tightly in time (a 150-node tribe generates
//! thousands of deliveries per simulated millisecond), which makes a binary
//! heap's per-event `O(log n)` sift the single hottest spot in a run. The
//! calendar queue amortizes ordering across millisecond buckets: pushes
//! append in `O(1)`, and each bucket is sorted once when the clock reaches
//! it.
//!
//! A bucket is one vector of records `(key, event)`. The key is
//! `offset_in_bucket_us << 32 | push_position`: the bucket number supplies
//! the rest of the timestamp, and position in the bucket *is* insertion
//! order, so the key is unique, an unstable sort on the `u64` alone yields
//! FIFO among equal timestamps, and a sorted bucket is popped from one end
//! with nothing to look up. With the simulator's 8-byte event a record is
//! 16 bytes — what used to be the sort key alone. A bucket's storage is
//! released when its last event is popped.
//!
//! The next `RING` buckets are a ring indexed by bucket number — where
//! every delivery lands (propagation is a few hundred milliseconds at
//! most), so a push is an index, not a tree walk. Only what lies further
//! ahead (round timeouts, restarts) waits in an ordered map and moves into
//! the ring as the clock approaches. Ring slots and the map hold no storage
//! of their own: nothing is pooled.
//!
//! # Invariant
//!
//! Pushes never go backwards in time past the bucket last promoted: the
//! simulator only schedules at or after the current event's timestamp.
//! Pushes *into* the active bucket are inserted in order.

use clanbft_types::Micros;
use std::collections::BTreeMap;

/// Bucket width in microseconds (one simulated millisecond).
const BUCKET_WIDTH_US: u64 = 1_000;

/// Buckets addressed directly: a good second of simulated time.
const RING: u64 = 1_024;

/// One queued event under its sort key (see the module docs).
pub(crate) type Record<E> = (u64, E);

/// The events of one bucket width of simulated time: push order while the
/// bucket lies in the future, descending by key once it is active (so `pop`
/// takes the earliest from the back).
type Bucket<E> = Vec<Record<E>>;

/// The key of the `position`-th record pushed into the bucket `at` falls in.
fn record_key(at: Micros, position: usize) -> u64 {
    let position = u32::try_from(position).expect("bucket holds under 2^32 events");
    (at.0 % BUCKET_WIDTH_US) << 32 | u64::from(position)
}

/// A deterministic time-ordered event queue.
pub struct EventQueue<E> {
    /// The buckets `current_key .. current_key + RING`, bucket `k` in slot
    /// `k % RING` (the active bucket's own slot is empty: it was taken).
    near: Vec<Bucket<E>>,
    /// Events waiting in `near`.
    near_len: usize,
    /// Buckets at `current_key + RING` and beyond.
    far: BTreeMap<u64, Bucket<E>>,
    /// The active bucket.
    current: Bucket<E>,
    /// Records pushed into the active bucket so far, popped ones included:
    /// the position of the next one pushed into it.
    current_pushed: usize,
    /// Key of the active bucket.
    current_key: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            near: (0..RING).map(|_| Bucket::new()).collect(),
            near_len: 0,
            far: BTreeMap::new(),
            current: Bucket::new(),
            current_pushed: 0,
            current_key: 0,
            len: 0,
        }
    }
}

// `#[inline]` on push, pop and peek_time: the simulator's event type is
// concrete, so these are compiled once, here, and its loops — generic, and
// instantiated in whichever crate names the message type — could otherwise
// only call them.
impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue::default()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies before the bucket last promoted — the simulator
    /// never schedules into the past.
    #[inline]
    pub fn push(&mut self, at: Micros, event: E) {
        self.len += 1;
        let key = at.0 / BUCKET_WIDTH_US;
        if !self.current.is_empty() && key == self.current_key {
            // Insert into the active (descending-sorted) bucket.
            let record = (record_key(at, self.current_pushed), event);
            self.current_pushed += 1;
            let pos = self.current.partition_point(|r| r.0 > record.0);
            self.current.insert(pos, record);
            return;
        }
        // (`key == current_key` with the active bucket drained is fine: its
        // ring slot is free again.)
        assert!(
            key >= self.current_key + u64::from(!self.current.is_empty()),
            "event scheduled into the past"
        );
        let bucket = if key - self.current_key < RING {
            self.near_len += 1;
            &mut self.near[(key % RING) as usize]
        } else {
            self.far.entry(key).or_default()
        };
        bucket.push((record_key(at, bucket.len()), event));
    }

    /// Promotes the earliest future bucket to active, sorting it.
    fn refill(&mut self) {
        if !self.current.is_empty() {
            return;
        }
        let mut bucket = if self.near_len > 0 {
            // Some slot of the ring holds events: the first from the
            // clock's position on is the earliest bucket there is.
            let key = (self.current_key..self.current_key + RING)
                .find(|k| !self.near[(k % RING) as usize].is_empty())
                .expect("near_len counts events in the ring");
            self.current_key = key;
            let bucket = std::mem::take(&mut self.near[(key % RING) as usize]);
            self.near_len -= bucket.len();
            bucket
        } else if let Some((key, bucket)) = self.far.pop_first() {
            self.current_key = key;
            bucket
        } else {
            return;
        };
        // The ring moved with the clock: what it now covers leaves the map.
        while let Some(entry) = self.far.first_entry() {
            if *entry.key() >= self.current_key + RING {
                break;
            }
            let (key, arrived) = entry.remove_entry();
            self.near_len += arrived.len();
            self.near[(key % RING) as usize] = arrived;
        }
        // Descending so pop() takes the earliest from the back; keys are
        // unique, so the unstable sort is deterministic.
        bucket.sort_unstable_by_key(|record| std::cmp::Reverse(record.0));
        self.current_pushed = bucket.len();
        self.current = bucket;
    }

    /// The timestamp a key of the active bucket stands for.
    fn time_of(&self, key: u64) -> Micros {
        Micros(self.current_key * BUCKET_WIDTH_US + (key >> 32))
    }

    /// Pops the earliest event (FIFO among equal timestamps).
    #[inline]
    pub fn pop(&mut self) -> Option<(Micros, E)> {
        self.refill();
        let (key, event) = self.current.pop()?;
        self.len -= 1;
        if self.current.is_empty() {
            self.current = Bucket::new();
        }
        Some((self.time_of(key), event))
    }

    /// Time of the next event without removing it.
    #[inline]
    pub fn peek_time(&mut self) -> Option<Micros> {
        self.refill();
        self.current.last().map(|r| self.time_of(r.0))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Micros(30_000), "c");
        q.push(Micros(10), "a");
        q.push(Micros(20_500), "b");
        assert_eq!(q.peek_time(), Some(Micros(10)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_ties() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Micros(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = EventQueue::new();
        q.push(Micros(10), 1);
        q.push(Micros(5), 0);
        assert_eq!(q.pop(), Some((Micros(5), 0)));
        q.push(Micros(7), 2);
        assert_eq!(q.pop(), Some((Micros(7), 2)));
        assert_eq!(q.pop(), Some((Micros(10), 1)));
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn push_into_active_bucket_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Micros(100), 1);
        q.push(Micros(300), 3);
        q.push(Micros(900), 9);
        assert_eq!(q.pop(), Some((Micros(100), 1)));
        // Now inside bucket 0; schedule more events within it.
        q.push(Micros(500), 5);
        q.push(Micros(300), 4); // tie with an existing entry, later seq
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![3, 4, 5, 9]);
    }

    #[test]
    fn spans_many_buckets() {
        let mut q = EventQueue::new();
        // Reverse insertion across 50 buckets.
        for i in (0..500u64).rev() {
            q.push(Micros(i * 137), i);
        }
        let mut last = Micros::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
        }
        assert_eq!(count, 500);
    }

    #[test]
    fn same_bucket_cross_time_order() {
        let mut q = EventQueue::new();
        q.push(Micros(999), "late");
        q.push(Micros(1), "early");
        q.push(Micros(500), "mid");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["early", "mid", "late"]);
    }

    /// A push for the bucket that has just drained — active bucket empty,
    /// same key — must pop before anything in a later bucket.
    #[test]
    fn push_into_just_drained_bucket_pops_first() {
        let mut q = EventQueue::new();
        q.push(Micros(200), "a");
        q.push(Micros(1_500), "next bucket");
        assert_eq!(q.pop(), Some((Micros(200), "a")));
        // Bucket 0 is drained but still the current key.
        q.push(Micros(900), "c");
        q.push(Micros(250), "b");
        q.push(Micros(900), "d");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(Micros(250)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["b", "c", "d", "next bucket"]);
    }

    /// A round timeout sits thousands of buckets ahead of the deliveries
    /// that keep arriving in front of it.
    #[test]
    fn far_future_timer_among_near_deliveries() {
        let mut q = EventQueue::new();
        let timeout = Micros(5_000_000);
        q.push(timeout, u64::MAX);
        q.push(Micros(40), 0);
        let mut popped = Vec::new();
        while let Some((at, e)) = q.pop() {
            popped.push((at, e));
            // Each delivery schedules the next a third of a millisecond on,
            // across bucket borders, up to and past the timer.
            if e < 20_000 {
                q.push(at + Micros(333), e + 1);
            }
        }
        assert_eq!(popped.len(), 20_002);
        assert!(popped.windows(2).all(|w| w[0].0 <= w[1].0));
        let fired = popped.iter().position(|&(_, e)| e == u64::MAX).unwrap();
        assert_eq!(popped[fired].0, timeout);
        // 40 + 333 k passes 5 s at k = 15 015.
        assert_eq!(popped[fired - 1].1, 15_014);
        assert_eq!(popped[fired + 1].1, 15_015);
    }
}
