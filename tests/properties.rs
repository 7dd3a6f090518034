//! Property-based tests over the workspace's core data structures and
//! invariants, on the in-tree `clanbft-testkit` harness (64 cases per
//! property, matching the original proptest configuration; raise globally
//! with `TESTKIT_CASES`). A failing case prints a `TESTKIT_SEED=...
//! TESTKIT_CASE=...` line that replays it exactly.

use clanbft_committee::bignum::BigUint;
use clanbft_committee::binomial::binomial;
use clanbft_committee::hypergeom::dishonest_majority_prob;
use clanbft_crypto::{Bitmap, ClanRng, Digest};
use clanbft_dag::{Dag, InsertOutcome};
use clanbft_testkit::{check, check_shrink, tk_assert, tk_assert_eq, Gen};
use clanbft_types::certs::TimeoutCert;
use clanbft_types::{
    Block, Decode, Encode, Micros, PartyId, Round, TribeParams, TxBatch, Vertex, VertexRef,
};

const CASES: u32 = 64;

// --- codec roundtrips -------------------------------------------------------

fn arb_batch(g: &mut Gen) -> TxBatch {
    let creator = g.u32_in(0, 4);
    let first_seq = g.u64_in(0, 1_000_000);
    let count = g.u32_in(0, 50);
    let tx_bytes = g.u32_in(1, 64);
    let at = g.u64_in(0, 1_000_000);
    TxBatch::with_payload(
        PartyId(creator),
        first_seq,
        count,
        tx_bytes,
        Micros(at),
        vec![0xabu8; (count * tx_bytes) as usize],
    )
}

fn arb_block(g: &mut Gen) -> Block {
    let p = g.u32_in(0, 8);
    let r = g.u64_in(0, 100);
    let batches = g.vec(0, 4, arb_batch);
    Block::new(PartyId(p), Round(r), batches)
}

fn arb_vertex(g: &mut Gen) -> Vertex {
    let round = g.u64_in(1, 50);
    let source = g.u32_in(0, 16);
    let strong = g.vec(3, 8, |g| g.u32_in(0, 16));
    let weak = g.vec(0, 3, |g| (g.u64_in(0, 40), g.u32_in(0, 16)));
    Vertex {
        round: Round(round),
        source: PartyId(source),
        block_digest: Digest::of(&[round as u8, source as u8]),
        block_bytes: round * 1000,
        block_tx_count: round,
        strong_edges: strong
            .into_iter()
            .map(|s| VertexRef {
                round: Round(round - 1),
                source: PartyId(s),
            })
            .collect(),
        weak_edges: weak
            .into_iter()
            .filter(|(r, _)| *r + 1 < round)
            .map(|(r, s)| VertexRef {
                round: Round(r),
                source: PartyId(s),
            })
            .collect(),
        nvc: None,
        tc: None,
    }
}

#[test]
fn txbatch_codec_roundtrip() {
    check("txbatch_codec_roundtrip", CASES, arb_batch, |batch| {
        let bytes = batch.to_bytes();
        let back = TxBatch::from_bytes(&bytes).map_err(|e| format!("decode failed: {e:?}"))?;
        tk_assert_eq!(&back, batch);
        tk_assert_eq!(back.has_payload(), batch.has_payload());
        tk_assert_eq!(back.tx_wire_bytes(), batch.tx_wire_bytes());
        Ok(())
    });
}

#[test]
fn txbatch_synthetic_codec_roundtrip() {
    // The metadata-only form (empty payload) must survive the wire too.
    check(
        "txbatch_synthetic_codec_roundtrip",
        CASES,
        |g| {
            TxBatch::synthetic(
                PartyId(g.u32_in(0, 4)),
                g.u64_in(0, 1_000_000),
                g.u32_in(0, 5_000),
                g.u32_in(1, 4096),
                Micros(g.u64_in(0, 1_000_000)),
            )
        },
        |batch| {
            let back = TxBatch::from_bytes(&batch.to_bytes())
                .map_err(|e| format!("decode failed: {e:?}"))?;
            tk_assert_eq!(&back, batch);
            tk_assert!(!back.has_payload(), "synthetic batches carry no payload");
            Ok(())
        },
    );
}

/// Random mutations of a *valid* encoding exercise the decoder's validation
/// branches far more densely than uniformly random bytes: every mutant is
/// one flip/truncation/extension away from well-formed. Decoding must
/// either round-trip to a batch whose accessors are panic-free, or reject
/// with a `DecodeError` — never panic.
#[test]
fn mutated_txbatch_encodings_never_panic() {
    check_shrink(
        "mutated_txbatch_encodings_never_panic",
        CASES * 4,
        |g| {
            let mut bytes = arb_batch(g).to_bytes();
            for _ in 0..g.usize_in(1, 5) {
                match g.u8_in(0, 3) {
                    0 if !bytes.is_empty() => {
                        // Flip one byte anywhere (headers and payload both).
                        let i = g.usize_in(0, bytes.len());
                        bytes[i] ^= g.u8_in(1, 255);
                    }
                    1 => {
                        bytes.truncate(g.usize_in(0, bytes.len() + 1));
                    }
                    _ => {
                        bytes.extend(g.bytes(1, 16));
                    }
                }
            }
            bytes
        },
        |bytes| {
            if let Ok(batch) = TxBatch::from_bytes(bytes) {
                // Whatever decoded must have total accessors.
                let _ = batch.has_payload();
                let _ = batch.tx_wire_bytes();
                let _ = batch.tx_ids().count();
                for i in [0, batch.count.saturating_sub(1), batch.count, u32::MAX] {
                    let _ = batch.tx_payload(i);
                }
            }
            Ok(())
        },
    );
}

#[test]
fn mutated_block_encodings_never_panic() {
    check_shrink(
        "mutated_block_encodings_never_panic",
        CASES * 4,
        |g| {
            let mut bytes = arb_block(g).to_bytes();
            for _ in 0..g.usize_in(1, 5) {
                match g.u8_in(0, 3) {
                    0 if !bytes.is_empty() => {
                        let i = g.usize_in(0, bytes.len());
                        bytes[i] ^= g.u8_in(1, 255);
                    }
                    1 => {
                        bytes.truncate(g.usize_in(0, bytes.len() + 1));
                    }
                    _ => {
                        bytes.extend(g.bytes(1, 16));
                    }
                }
            }
            bytes
        },
        |bytes| {
            if let Ok(block) = Block::from_bytes(bytes) {
                let _ = block.digest();
                let _ = block.tx_count();
                for b in &block.batches {
                    let _ = b.has_payload();
                    let _ = b.tx_wire_bytes();
                    let _ = b.tx_payload(b.count);
                }
            }
            Ok(())
        },
    );
}

#[test]
fn block_codec_roundtrip() {
    check("block_codec_roundtrip", CASES, arb_block, |block| {
        let bytes = block.to_bytes();
        let back = Block::from_bytes(&bytes).map_err(|e| format!("decode failed: {e:?}"))?;
        tk_assert_eq!(&back, block);
        tk_assert_eq!(back.digest(), block.digest());
        Ok(())
    });
}

#[test]
fn vertex_codec_roundtrip() {
    check("vertex_codec_roundtrip", CASES, arb_vertex, |vertex| {
        let bytes = vertex.to_bytes();
        let back = Vertex::from_bytes(&bytes).map_err(|e| format!("decode failed: {e:?}"))?;
        tk_assert_eq!(back.id(), vertex.id());
        tk_assert_eq!(&back.strong_edges, &vertex.strong_edges);
        tk_assert_eq!(&back.weak_edges, &vertex.weak_edges);
        Ok(())
    });
}

#[test]
fn vertex_decode_never_panics() {
    check_shrink(
        "vertex_decode_never_panics",
        CASES,
        |g| g.bytes(0, 512),
        |bytes| {
            // Hostile input must produce an error, never a panic.
            let _ = Vertex::from_bytes(bytes);
            let _ = Block::from_bytes(bytes);
            let _ = TimeoutCert::from_bytes(bytes);
            Ok(())
        },
    );
}

// --- bitmap model test ------------------------------------------------------

#[test]
fn bitmap_matches_hashset_model() {
    check_shrink(
        "bitmap_matches_hashset_model",
        CASES,
        |g| g.vec(1, 100, |g| g.usize_in(0, 200)),
        |ops| {
            let mut bitmap = Bitmap::new(200);
            let mut model = std::collections::HashSet::new();
            for &idx in ops {
                if idx >= 200 {
                    return Ok(()); // shrunk outside the generator's range
                }
                let fresh_bm = bitmap.set(idx);
                let fresh_model = model.insert(idx);
                tk_assert_eq!(fresh_bm, fresh_model);
                tk_assert_eq!(bitmap.count(), model.len());
            }
            let from_iter: Vec<usize> = bitmap.iter().collect();
            let mut from_model: Vec<usize> = model.into_iter().collect();
            from_model.sort_unstable();
            tk_assert_eq!(from_iter, from_model);
            Ok(())
        },
    );
}

// --- event queue model test -------------------------------------------------

/// Any interleaving of pushes (at or after the last popped time) and pops
/// comes out of the packed calendar queue in `(time, insertion order)`
/// order, as a binary heap over `(time, global sequence)` gives it.
///
/// An op is `(count, delay)`: pop once if `count` is zero, otherwise push
/// `count` events — ties at one microsecond — `delay` after the last popped
/// time. Both numbers shrink, so a failure reports the fewest, smallest
/// pushes that still show it.
#[test]
fn event_queue_matches_heap_model() {
    use clanbft_simnet::event::EventQueue;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let arb_op = |g: &mut Gen| -> (u32, u64) {
        let count = match g.u8_in(0, 40) {
            0..=13 => return (0, 0),
            // More events in one bucket than 16 bits of position hold — a
            // future bucket: insertion into the active one is linear.
            14 if g.u8_in(0, 16) == 0 => {
                return (g.u32_in(66_000, 70_000), g.u64_in(1_000, 60_000));
            }
            14..=17 => g.u32_in(2, 40),
            _ => 1,
        };
        let delay = match g.u8_in(0, 8) {
            // The same instant; inside the same millisecond bucket (the
            // active one, or the one that has just drained).
            0 => 0,
            1 | 2 => g.u64_in(0, 999),
            // Some buckets on; most of the ring away.
            3..=5 => g.u64_in(0, 60_000),
            6 => g.u64_in(0, 1_100_000),
            // A round timeout away: beyond the ring, into it as time passes.
            _ => g.u64_in(4_990_000, 5_010_000),
        };
        (count, delay)
    };
    check_shrink(
        "event_queue_matches_heap_model",
        CASES,
        |g| g.vec(1, 600, arb_op),
        |ops| {
            let mut queue = EventQueue::new();
            let mut model = BinaryHeap::new();
            let (mut now, mut seq) = (0u64, 0u64);
            // The ops as generated, then pops until both are empty.
            let pushed: usize = ops.iter().map(|op| op.0 as usize).sum();
            let drain = std::iter::repeat(&(0, 0)).take(pushed);
            for &(count, delay) in ops.iter().chain(drain) {
                for _ in 0..count {
                    queue.push(Micros(now + delay), seq);
                    model.push(Reverse((now + delay, seq)));
                    seq += 1;
                }
                if count == 0 {
                    let want = model.pop().map(|Reverse((at, seq))| (Micros(at), seq));
                    tk_assert_eq!(queue.peek_time(), want.map(|(at, _)| at));
                    tk_assert_eq!(queue.pop(), want);
                    now = want.map_or(now, |(at, _)| at.0);
                }
                tk_assert_eq!(queue.len(), model.len());
            }
            tk_assert!(queue.is_empty());
            Ok(())
        },
    );
}

// --- bignum / combinatorics -------------------------------------------------

#[test]
fn bignum_add_sub_roundtrip() {
    check_shrink(
        "bignum_add_sub_roundtrip",
        CASES,
        |g| (g.u64(), g.u64()),
        |&(a, b)| {
            let big_a = BigUint::from_u64(a);
            let big_b = BigUint::from_u64(b);
            let sum = big_a.add(&big_b);
            tk_assert_eq!(sum.sub(&big_b), big_a);
            tk_assert_eq!(sum.to_decimal(), (a as u128 + b as u128).to_string());
            Ok(())
        },
    );
}

#[test]
fn bignum_mul_matches_u128() {
    check_shrink(
        "bignum_mul_matches_u128",
        CASES,
        |g| (g.u64(), g.u64()),
        |&(a, b)| {
            let prod = BigUint::from_u64(a).mul(&BigUint::from_u64(b));
            tk_assert_eq!(prod.to_decimal(), (a as u128 * b as u128).to_string());
            Ok(())
        },
    );
}

#[test]
fn binomial_symmetry_and_bounds() {
    check_shrink(
        "binomial_symmetry_and_bounds",
        CASES,
        |g| (g.u64_in(1, 120), g.u64_in(0, 120)),
        |&(n, k)| {
            if n == 0 {
                return Ok(()); // shrunk below the generator's range
            }
            if k <= n {
                tk_assert_eq!(binomial(n, k), binomial(n, n - k));
                tk_assert!(!binomial(n, k).is_zero(), "C({n},{k}) must be positive");
            } else {
                tk_assert!(binomial(n, k).is_zero(), "C({n},{k}) with k>n must be zero");
            }
            Ok(())
        },
    );
}

#[test]
fn hypergeometric_is_a_probability() {
    check_shrink(
        "hypergeometric_is_a_probability",
        CASES,
        |g| (g.u64_in(6, 80), g.u64_in(1, 99)),
        |&(n, nc_frac)| {
            if n < 6 || nc_frac == 0 {
                return Ok(()); // shrunk below the generator's range
            }
            let f = (n - 1) / 3;
            let nc = (n * nc_frac / 100).clamp(1, n);
            let p = dishonest_majority_prob(n, f, nc);
            tk_assert!((0.0..=1.0).contains(&p), "p = {p}");
            Ok(())
        },
    );
}

#[test]
fn clan_monotone_in_faults() {
    check_shrink(
        "clan_monotone_in_faults",
        CASES,
        |g| (g.u64_in(10, 60), g.u64_in(4, 10)),
        |&(n, nc)| {
            if n < 10 || nc == 0 {
                return Ok(()); // shrunk below the generator's range
            }
            // More Byzantine parties can only make a clan draw worse.
            let mut prev = -1.0f64;
            for f in 0..=(n - 1) / 3 {
                let p = dishonest_majority_prob(n, f, nc.min(n));
                tk_assert!(p >= prev - 1e-12, "f={f} p={p} prev={prev}");
                prev = p;
            }
            Ok(())
        },
    );
}

// --- DAG invariants ---------------------------------------------------------

#[test]
fn dag_insertion_order_is_irrelevant() {
    check_shrink(
        "dag_insertion_order_is_irrelevant",
        CASES,
        |g| g.u64(),
        |&seed| {
            // Build a fixed 4-party, 4-round DAG; insert in random order; the
            // final state and emitted order must be identical.
            let mk_vertices = || -> Vec<Vertex> {
                let mut vs = Vec::new();
                for s in 0..4u32 {
                    vs.push(Vertex {
                        round: Round(0),
                        source: PartyId(s),
                        block_digest: Digest::of(&[0, s as u8]),
                        block_bytes: 0,
                        block_tx_count: 0,
                        strong_edges: vec![],
                        weak_edges: vec![],
                        nvc: None,
                        tc: None,
                    });
                }
                for r in 1..4u64 {
                    for s in 0..4u32 {
                        vs.push(Vertex {
                            round: Round(r),
                            source: PartyId(s),
                            block_digest: Digest::of(&[r as u8, s as u8]),
                            block_bytes: 0,
                            block_tx_count: 0,
                            strong_edges: (0..4)
                                .map(|t| VertexRef {
                                    round: Round(r - 1),
                                    source: PartyId(t),
                                })
                                .collect(),
                            weak_edges: vec![],
                            nvc: None,
                            tc: None,
                        });
                    }
                }
                vs
            };
            let reference_order = {
                let mut dag = Dag::new(TribeParams::new(4));
                for v in mk_vertices() {
                    dag.insert(v);
                }
                dag.take_causal_history(&VertexRef {
                    round: Round(3),
                    source: PartyId(1),
                })
            };
            let mut rng = ClanRng::seed_from_u64(seed);
            let mut shuffled = mk_vertices();
            rng.shuffle(&mut shuffled);
            let mut dag = Dag::new(TribeParams::new(4));
            let mut live_total = 0;
            for v in shuffled {
                if let InsertOutcome::Live(l) = dag.insert(v) {
                    live_total += l.len();
                }
            }
            tk_assert_eq!(live_total, 16); // every vertex eventually live
            let order = dag.take_causal_history(&VertexRef {
                round: Round(3),
                source: PartyId(1),
            });
            tk_assert_eq!(order, reference_order);
            Ok(())
        },
    );
}

/// Monte-Carlo bridge between the elector and the exact hypergeometric
/// math: the empirical dishonest-majority frequency of uniformly elected
/// clans must match Eq. 1 within sampling error.
/// The reference the index-addressed [`Dag`] is held to: one ordered map of
/// live vertices, flat lists for everything else, every set recomputed on
/// demand. It follows the same buffering rule (a pending vertex waits on its
/// first missing parent; waiters wake in arrival order), so outcomes must
/// agree in content *and* order.
struct NaiveDag {
    horizon: Round,
    live: std::collections::BTreeMap<VertexRef, Vertex>,
    pending: Vec<Vertex>,
    /// `(missing parent, waiter)` in arrival order.
    waiting: Vec<(VertexRef, VertexRef)>,
    ordered: std::collections::BTreeSet<VertexRef>,
}

impl NaiveDag {
    fn empty() -> NaiveDag {
        NaiveDag {
            horizon: Round(0),
            live: Default::default(),
            pending: Vec::new(),
            waiting: Vec::new(),
            ordered: Default::default(),
        }
    }

    fn contains(&self, r: &VertexRef) -> bool {
        r.round < self.horizon || self.live.contains_key(r)
    }

    fn first_missing(&self, v: &Vertex) -> Option<VertexRef> {
        let mut edges = v.strong_edges.iter().chain(&v.weak_edges);
        edges.find(|e| !self.contains(e)).copied()
    }

    fn insert(&mut self, v: Vertex) -> InsertOutcome {
        let vref = v.reference();
        if self.contains(&vref) || self.pending.iter().any(|p| p.reference() == vref) {
            return InsertOutcome::Duplicate;
        }
        if let Some(missing) = self.first_missing(&v) {
            self.waiting.push((missing, vref));
            self.pending.push(v);
            return InsertOutcome::Pending;
        }
        self.live.insert(vref, v);
        let mut live = vec![vref];
        self.wake(&[], &mut live);
        InsertOutcome::Live(live)
    }

    fn wake(&mut self, freed: &[VertexRef], live: &mut Vec<VertexRef>) {
        let mut next = 0;
        while let Some(present) = freed.iter().chain(live.iter()).nth(next).copied() {
            next += 1;
            let (woken, rest): (Vec<_>, Vec<_>) =
                self.waiting.drain(..).partition(|(m, _)| *m == present);
            self.waiting = rest;
            for (_, w) in woken {
                let at = self.pending.iter().position(|p| p.reference() == w);
                let Some(at) = at else { continue };
                if let Some(missing) = self.first_missing(&self.pending[at]) {
                    self.waiting.push((missing, w));
                    continue;
                }
                self.live.insert(w, self.pending.remove(at));
                live.push(w);
            }
        }
    }

    fn prune_below(&mut self, round: Round) -> Vec<VertexRef> {
        let mut live = Vec::new();
        if round <= self.horizon {
            return live;
        }
        self.horizon = round;
        self.live.retain(|r, _| r.round >= round);
        self.pending.retain(|v| v.round >= round);
        self.waiting.retain(|(_, w)| w.round >= round);
        self.ordered.retain(|r| r.round >= round);
        let freed: std::collections::BTreeSet<VertexRef> = self
            .waiting
            .iter()
            .map(|(m, _)| *m)
            .filter(|m| m.round < round)
            .collect();
        self.wake(&freed.into_iter().collect::<Vec<_>>(), &mut live);
        live
    }

    fn exists_strong_path(&self, from: &VertexRef, to: &VertexRef) -> bool {
        if from == to {
            return self.contains(from);
        }
        if to.round >= from.round || !self.live.contains_key(from) || to.round < self.horizon {
            return false;
        }
        let mut seen = std::collections::BTreeSet::new();
        let mut queue = vec![*from];
        while let Some(cur) = queue.pop() {
            for e in self.live.get(&cur).map_or(&[][..], |v| &v.strong_edges) {
                if e == to {
                    return true;
                }
                if e.round > to.round && seen.insert(*e) {
                    queue.push(*e);
                }
            }
        }
        false
    }

    fn take_causal_history(&mut self, root: &VertexRef) -> Vec<VertexRef> {
        if !self.live.contains_key(root) || self.ordered.contains(root) {
            return Vec::new();
        }
        let mut seen = std::collections::BTreeSet::from([*root]);
        let mut stack = vec![*root];
        while let Some(cur) = stack.pop() {
            let v = &self.live[&cur];
            for e in v.strong_edges.iter().chain(&v.weak_edges) {
                let fresh = e.round >= self.horizon
                    && !self.ordered.contains(e)
                    && self.live.contains_key(e);
                if fresh && seen.insert(*e) {
                    stack.push(*e);
                }
            }
        }
        self.ordered.extend(seen.iter().copied());
        seen.into_iter().collect()
    }

    /// Every live vertex `roots` reach over strong and weak edges, breadth
    /// first, ordered or not, however old.
    fn reachable(&self, roots: &[VertexRef]) -> std::collections::BTreeSet<VertexRef> {
        let mut seen = std::collections::BTreeSet::new();
        let mut queue: std::collections::VecDeque<VertexRef> = roots.iter().copied().collect();
        while let Some(cur) = queue.pop_front() {
            let Some(v) = self.live.get(&cur) else {
                continue;
            };
            if seen.insert(cur) {
                queue.extend(v.strong_edges.iter().chain(&v.weak_edges));
            }
        }
        seen
    }
}

/// A random DAG of up to `ROUNDS` rounds over 4–7 parties: some parties skip
/// rounds, strong edges are a random quorum of the previous round (`sparse`:
/// any one or more — the store does not count them — so that orphans are
/// common), weak edges reach further back, and now and then an edge names a
/// vertex that will never exist (its child stays pending until the horizon
/// passes it).
fn arb_dag_vertices(seed: u64, sparse: bool) -> (usize, Vec<Vertex>) {
    const ROUNDS: u64 = 6;
    let mut rng = ClanRng::seed_from_u64(seed);
    let n = 4 + (seed % 4) as usize;
    let least = if sparse {
        1
    } else {
        TribeParams::new(n).quorum()
    };
    let mut rounds: Vec<Vec<VertexRef>> = Vec::new();
    let mut vertices = Vec::new();
    for r in 0..ROUNDS {
        let mut present = Vec::new();
        for s in 0..n as u32 {
            if r > 0 && rng.gen_u64_below(8) == 0 {
                continue;
            }
            let vref = VertexRef {
                round: Round(r),
                source: PartyId(s),
            };
            let (mut strong, mut weak) = (Vec::new(), Vec::new());
            if r > 0 {
                strong = rounds[r as usize - 1].clone();
                rng.shuffle(&mut strong);
                strong.truncate(rng.gen_usize(least.min(strong.len()), strong.len() + 1));
                if rng.gen_u64_below(10) == 0 {
                    strong.push(VertexRef {
                        round: Round(r - 1),
                        source: PartyId(rng.gen_u64_below(n as u64) as u32),
                    });
                    strong.dedup();
                }
            }
            if r > 1 {
                let older: Vec<VertexRef> = rounds[..r as usize - 1].concat();
                for _ in 0..rng.gen_u64_below(3) {
                    weak.push(older[rng.gen_usize(0, older.len())]);
                }
                weak.sort();
                weak.dedup();
            }
            vertices.push(Vertex {
                round: Round(r),
                source: PartyId(s),
                block_digest: Digest::of(&[r as u8, s as u8]),
                block_bytes: 0,
                block_tx_count: 0,
                strong_edges: strong,
                weak_edges: weak,
                nvc: None,
                tc: None,
            });
            present.push(vref);
        }
        rounds.push(present);
    }
    (n, vertices)
}

#[test]
fn index_addressed_dag_matches_naive_reference() {
    check_shrink(
        "index_addressed_dag_matches_naive_reference",
        CASES * 2,
        |g| (g.u64(), g.vec(0, 120, |g| (g.u8(), g.u32()))),
        |(seed, ops)| {
            let (n, vertices) = arb_dag_vertices(*seed, false);
            let refs: Vec<VertexRef> = vertices.iter().map(Vertex::reference).collect();
            let mut dag = Dag::new(TribeParams::new(n));
            let mut naive = NaiveDag::empty();
            for (step, &(kind, arg)) in ops.iter().enumerate() {
                let at = arg as usize % vertices.len();
                match kind % 8 {
                    // Mostly inserts, in whatever order and as often as the
                    // ops say: duplicates and pending chains come for free.
                    0..=4 => {
                        let (got, want) = (
                            dag.insert(vertices[at].clone()),
                            naive.insert(vertices[at].clone()),
                        );
                        tk_assert!(got == want, "step {step}: insert {got:?} != {want:?}");
                    }
                    5 => {
                        let round = Round(u64::from(arg) % 7);
                        let (got, want) = (dag.prune_below(round), naive.prune_below(round));
                        tk_assert!(got == want, "step {step}: prune {got:?} != {want:?}");
                    }
                    6 => {
                        let got = clanbft_dag::order::causal_order(&mut dag, &[refs[at]]);
                        let want = naive.take_causal_history(&refs[at]);
                        tk_assert!(got == want, "step {step}: order {got:?} != {want:?}");
                    }
                    _ => {
                        dag.mark_ordered(refs[at]);
                        if refs[at].round >= naive.horizon {
                            naive.ordered.insert(refs[at]);
                        }
                    }
                }
                tk_assert_eq!(dag.horizon(), naive.horizon);
                tk_assert_eq!(dag.pending_count(), naive.pending.len());
                tk_assert_eq!(dag.live_count(), naive.live.len());
            }
            for r in 0..7 {
                let got: Vec<VertexRef> = dag
                    .round_vertices(Round(r))
                    .iter()
                    .map(|v| v.reference())
                    .collect();
                let want: Vec<VertexRef> = naive
                    .live
                    .keys()
                    .filter(|k| k.round == Round(r))
                    .copied()
                    .collect();
                tk_assert!(got == want, "round {r}: {got:?} != {want:?}");
                tk_assert_eq!(dag.round_count(Round(r)), want.len());
            }
            let from_horizon: Vec<VertexRef> = dag
                .live_vertices_from(dag.horizon())
                .iter()
                .map(|v| v.reference())
                .collect();
            tk_assert_eq!(from_horizon, naive.live.keys().copied().collect::<Vec<_>>());
            for a in &refs {
                tk_assert_eq!(dag.is_ordered(a), naive.ordered.contains(a));
                tk_assert_eq!(dag.contains(a), naive.contains(a));
                for b in &refs {
                    let (got, want) =
                        (dag.exists_strong_path(a, b), naive.exists_strong_path(a, b));
                    tk_assert!(got == want, "path {a:?} -> {b:?}: {got} != {want}");
                }
            }
            Ok(())
        },
    );
}

/// The weak-edge rule against the naive model, on random DAGs delivered in
/// random order with commits and collections in between: a proposal cites
/// an older vertex only where it has no path to it and the total order does
/// not hold it yet, cites every such candidate unless the cap binds (then
/// the oldest), keeps exactly the uncited orphans as candidates, and none of
/// it depends on the order the candidates were noted in.
#[test]
fn weak_edges_go_only_where_no_path_exists() {
    use std::collections::BTreeSet;
    check_shrink(
        "weak_edges_go_only_where_no_path_exists",
        CASES * 2,
        |g| {
            (
                g.u64(),
                g.vec(0, 6, |g| (g.u8(), g.u32())),
                g.vec(0, 16, |g| g.u32()),
            )
        },
        |(seed, ops, skips)| {
            let (n, vertices) = arb_dag_vertices(*seed, true);
            let refs: Vec<VertexRef> = vertices.iter().map(Vertex::reference).collect();
            let mut dag = Dag::new(TribeParams::new(n));
            let mut naive = NaiveDag::empty();
            // Every vertex arrives, in an order of the seed's choosing; the
            // ops commit (through the walk only, so that the ordered set is
            // closed under history as it is at a node) and collect in
            // between.
            let mut arrival: Vec<usize> = (0..vertices.len()).collect();
            ClanRng::seed_from_u64(*seed).shuffle(&mut arrival);
            for (i, &at) in arrival.iter().enumerate() {
                for &(kind, arg) in ops
                    .iter()
                    .filter(|(_, arg)| *arg as usize % arrival.len() == i)
                {
                    if kind % 4 == 0 {
                        let round = Round(u64::from(kind) / 4 % 3);
                        dag.prune_below(round);
                        naive.prune_below(round);
                    } else {
                        let root = refs[arg as usize / arrival.len() % refs.len()];
                        clanbft_dag::order::causal_order(&mut dag, &[root]);
                        naive.take_causal_history(&root);
                    }
                }
                dag.insert(vertices[at].clone());
                naive.insert(vertices[at].clone());
            }
            // The proposal: strong edges to one or two live vertices of a
            // round (few, so that some of what is below stays out of reach),
            // and every vertex that went live a candidate but for a few.
            let prev = Round(2 + (seed >> 8) % 4);
            let cap = [1, 2, usize::MAX][(seed >> 16) as usize % 3];
            let mut strong: Vec<VertexRef> = dag
                .round_vertices(prev)
                .iter()
                .map(|v| v.reference())
                .collect();
            strong.truncate(1 + (seed >> 24) as usize % 2);
            let noted: Vec<VertexRef> = (0..refs.len())
                .filter(|i| !skips.iter().any(|s| *s as usize % refs.len() == *i))
                .map(|i| refs[i])
                .filter(|r| naive.contains(r))
                .collect();
            let mut late: BTreeSet<VertexRef> = noted.iter().copied().collect();
            let cited = dag.weak_edges(&strong, &mut late, cap);

            let reachable = naive.reachable(&strong);
            let settled = |c: &VertexRef| {
                c.round < naive.horizon || naive.ordered.contains(c) || reachable.contains(c)
            };
            let older: Vec<VertexRef> = noted.iter().filter(|c| c.round < prev).copied().collect();
            if strong.is_empty() {
                tk_assert!(cited.is_empty() && late.len() == noted.len());
                return Ok(());
            }
            for c in &cited {
                tk_assert!(
                    older.contains(c) && !settled(c),
                    "cited {c:?} needs no edge"
                );
                tk_assert!(!late.contains(c), "cited {c:?} is still a candidate");
            }
            tk_assert!(cited.len() <= cap && cited.windows(2).all(|w| w[0] < w[1]));
            for c in &older {
                if cited.contains(c) {
                    continue;
                }
                // Left out: settled (and forgotten), or squeezed out by the
                // cap behind older orphans (and kept).
                tk_assert_eq!(late.contains(c), !settled(c));
                if !settled(c) {
                    tk_assert!(cited.len() == cap && cited.iter().all(|taken| taken < c));
                }
            }
            for c in noted.iter().filter(|c| c.round >= prev) {
                tk_assert!(late.contains(c), "{c:?} is not this proposal's to judge");
            }
            // Noted in another order: the same edges, the same survivors.
            let mut again: BTreeSet<VertexRef> = noted.iter().rev().copied().collect();
            tk_assert_eq!(dag.weak_edges(&strong, &mut again, cap), cited);
            tk_assert_eq!(again, late);
            Ok(())
        },
    );
}

#[test]
fn election_frequency_matches_hypergeometric() {
    use clanbft_committee::ClanAssignment;
    use clanbft_types::ClanId;

    let (n, f, nc) = (20usize, 6usize, 5u64);
    // Byzantine parties are 0..6 by convention; election is uniform so the
    // labels do not matter.
    let exact = dishonest_majority_prob(n as u64, f as u64, nc);
    let trials = 20_000u32;
    let mut bad = 0u32;
    for seed in 0..trials {
        let a = ClanAssignment::elect_uniform(n, nc as usize, seed as u64);
        let byz_in_clan = a
            .members(ClanId(0))
            .iter()
            .filter(|p| (p.idx()) < f)
            .count() as u64;
        if byz_in_clan >= nc.div_ceil(2) {
            bad += 1;
        }
    }
    let freq = bad as f64 / trials as f64;
    // exact ≈ 0.04 here; 20k trials give ~0.0014 std dev. Allow 4 sigma.
    let sigma = (exact * (1.0 - exact) / trials as f64).sqrt();
    assert!(
        (freq - exact).abs() < 4.0 * sigma + 1e-9,
        "empirical {freq} vs exact {exact} (sigma {sigma})"
    );
}
