//! A deterministic pseudo-random generator built on the crate's own SHA-256.
//!
//! [`ClanRng`] runs SHA-256 in counter mode: block `i` of the keystream is
//! `H("clanbft/prng-block" ‖ key ‖ i)`, where the 32-byte `key` comes from a
//! seed (deterministic runs) or from `/dev/urandom` (OS-entropy runs). This
//! is the workspace's only source of randomness — elections, simulator
//! jitter, the pre-GST adversary, key generation and the property-test
//! harness all draw from it — which is what makes every run reproducible
//! from a single `u64` seed.
//!
//! The construction is the classic hash-CTR DRBG shape. It is not meant to
//! resist state-compromise attacks (no forward secrecy, no reseeding); like
//! the rest of this crate it targets protocol simulation and research, not
//! production key management.
//!
//! # Examples
//!
//! ```
//! use clanbft_crypto::prng::ClanRng;
//!
//! let mut a = ClanRng::seed_from_u64(7);
//! let mut b = ClanRng::seed_from_u64(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

use crate::digest::Hasher;
use crate::sha256::compress_pair;

/// Bytes of keystream per block (one SHA-256 output).
const BLOCK_BYTES: usize = 32;

/// Keystream blocks produced per refill.
const LANES: usize = 4;

/// Bytes of keystream buffered.
const BUF_BYTES: usize = LANES * BLOCK_BYTES;

/// Domain tag of a keystream block.
const BLOCK_DOMAIN: &str = "clanbft/prng-block";

/// Counters below this leave the block preimage's first 64 bytes constant
/// (see [`ClanRng::refill`]).
const MIDSTATE_COUNTERS: u64 = 1 << 48;

/// The second SHA-256 block of a block preimage whose counter is below
/// [`MIDSTATE_COUNTERS`], counter bytes (the first six) left zero: the
/// `0x80` that ends the 70-byte message, and its length in bits.
const TAIL_BLOCK: [u8; 64] = {
    let mut block = [0u8; 64];
    block[6] = 0x80;
    block[62] = ((70 * 8) >> 8) as u8;
    block[63] = ((70 * 8) & 0xFF) as u8;
    block
};

/// A seedable deterministic PRNG (SHA-256 in counter mode).
#[derive(Clone, Debug)]
pub struct ClanRng {
    key: [u8; 32],
    /// Hash state after the first 64 bytes of a block preimage whose
    /// counter is below [`MIDSTATE_COUNTERS`].
    midstate: [u32; 8],
    /// Counter of the next block to generate; wraps at 2^64.
    counter: u64,
    /// The keystream blocks `counter - LANES .. counter`.
    buf: [u8; BUF_BYTES],
    /// Bytes of `buf` already handed out; `BUF_BYTES` forces a refill.
    used: usize,
}

impl ClanRng {
    /// A generator keyed directly by 32 seed bytes.
    pub fn from_seed(seed: [u8; 32]) -> ClanRng {
        let mut prefix = Hasher::new(BLOCK_DOMAIN).chain(&seed).into_sha256();
        prefix.update(&[0, 0]);
        ClanRng {
            key: seed,
            midstate: prefix.block_aligned_state(),
            counter: 0,
            buf: [0u8; BUF_BYTES],
            used: BUF_BYTES,
        }
    }

    /// A generator keyed by a `u64` seed (expanded through the hash so that
    /// nearby seeds yield unrelated streams).
    pub fn seed_from_u64(seed: u64) -> ClanRng {
        let key = Hasher::new("clanbft/prng-seed").chain_u64(seed).finalize();
        ClanRng::from_seed(key.0)
    }

    /// A generator keyed from OS entropy (`/dev/urandom`), for explicitly
    /// non-deterministic runs.
    ///
    /// If `/dev/urandom` cannot be read (non-Unix build environments), the
    /// key falls back to hashing the wall clock, the process id and a
    /// process-global counter — unpredictable enough for test seeding,
    /// which is this constructor's only job.
    pub fn from_os_entropy() -> ClanRng {
        ClanRng::from_seed(os_entropy_seed())
    }

    /// The next [`LANES`] keystream blocks, block `i` being
    /// `H(domain ‖ key ‖ i)` in [`Hasher`] framing. The preimage is 70
    /// bytes — tag and key fill bytes 0..62, the big-endian counter bytes
    /// 62..70 — so while the counter's top two bytes are zero the first
    /// SHA-256 block never changes: its state is computed once per
    /// generator, and a keystream block is one compression of
    /// [`TAIL_BLOCK`] with the six low counter bytes filled in, straight
    /// from that state. Those compressions are independent, which is why a
    /// refill makes several: [`compress_pair`] runs two in the time the
    /// latency of one takes. A refill that reaches 2^48 takes the generic
    /// construction; the stream is the same function of `(key, counter)`
    /// on both sides of the switch.
    fn refill(&mut self) {
        let counters: [u64; LANES] = std::array::from_fn(|i| self.counter.wrapping_add(i as u64));
        if counters.iter().all(|&c| c < MIDSTATE_COUNTERS) {
            let mut blocks = [TAIL_BLOCK; LANES];
            for (block, counter) in blocks.iter_mut().zip(counters) {
                block[..6].copy_from_slice(&counter.to_be_bytes()[2..]);
            }
            let outputs = self.buf.chunks_exact_mut(2 * BLOCK_BYTES);
            for (pair, out) in blocks.chunks_exact(2).zip(outputs) {
                let pair = pair.try_into().expect("chunks of two");
                let states = compress_pair(&self.midstate, pair);
                for (word, out) in states.iter().flatten().zip(out.chunks_exact_mut(4)) {
                    out.copy_from_slice(&word.to_be_bytes());
                }
            }
        } else {
            for (out, counter) in self.buf.chunks_exact_mut(BLOCK_BYTES).zip(counters) {
                let block = Hasher::new(BLOCK_DOMAIN)
                    .chain(&self.key)
                    .chain_u64(counter)
                    .finalize();
                out.copy_from_slice(&block.0);
            }
        }
        self.counter = self.counter.wrapping_add(LANES as u64);
        self.used = 0;
    }

    /// The next 8 keystream bytes as a `u64`. A word never straddles two
    /// keystream blocks: what an unaligned [`ClanRng::fill_bytes`] left of
    /// the current block is skipped.
    pub fn next_u64(&mut self) -> u64 {
        if self.used % BLOCK_BYTES + 8 > BLOCK_BYTES {
            self.used = self.used.next_multiple_of(BLOCK_BYTES);
        }
        if self.used == BUF_BYTES {
            self.refill();
        }
        let bytes: [u8; 8] = self.buf[self.used..self.used + 8]
            .try_into()
            .expect("slice is 8 bytes");
        self.used += 8;
        u64::from_be_bytes(bytes)
    }

    /// The next 4 keystream bytes as a `u32`.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Fills `dest` with keystream bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut off = 0;
        while off < dest.len() {
            if self.used == BUF_BYTES {
                self.refill();
            }
            let take = (dest.len() - off).min(BUF_BYTES - self.used);
            dest[off..off + take].copy_from_slice(&self.buf[self.used..self.used + take]);
            self.used += take;
            off += take;
        }
    }

    /// A uniform `u64` in `[0, bound)`, bias-free via rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_u64_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Reject values above the largest multiple of `bound` so every
        // residue is equally likely.
        let zone = u64::MAX - u64::MAX % bound;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// A uniform `u64` in the half-open range `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.gen_u64_below(hi - lo)
    }

    /// A uniform `u64` in the closed range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn gen_u64_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.gen_u64_below(span + 1)
    }

    /// A uniform `usize` in the half-open range `[lo, hi)`.
    pub fn gen_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.gen_u64(lo as u64, hi as u64) as usize
    }

    /// True with probability 1/2.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniform `f64` in `[0, 1)` with full 53-bit mantissa resolution.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn gen_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Shuffles `slice` uniformly (Fisher–Yates).
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_u64_inclusive(0, i as u64) as usize;
            slice.swap(i, j);
        }
    }

    /// Partial Fisher–Yates: after the call, the first `amount` elements are
    /// a uniform random sample of the slice, in uniform random order. Cheaper
    /// than a full shuffle when only a prefix is needed (clan election).
    pub fn partial_shuffle<T>(&mut self, slice: &mut [T], amount: usize) {
        let n = slice.len();
        for i in 0..amount.min(n) {
            let j = self.gen_usize(i, n);
            slice.swap(i, j);
        }
    }
}

/// 32 key bytes from the OS, with a hash-the-environment fallback.
fn os_entropy_seed() -> [u8; 32] {
    use std::io::Read;
    if let Ok(mut f) = std::fs::File::open("/dev/urandom") {
        let mut seed = [0u8; 32];
        if f.read_exact(&mut seed).is_ok() {
            return seed;
        }
    }
    use std::sync::atomic::{AtomicU64, Ordering};
    static FALLBACK_COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    Hasher::new("clanbft/prng-entropy-fallback")
        .chain_u64(nanos)
        .chain_u64(std::process::id() as u64)
        .chain_u64(FALLBACK_COUNTER.fetch_add(1, Ordering::Relaxed))
        .finalize()
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ClanRng::seed_from_u64(123);
        let mut b = ClanRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ClanRng::seed_from_u64(1);
        let mut b = ClanRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    /// The keystream for seed 0 is pinned: any change to the PRNG
    /// construction (hash, domain tags, counter encoding) re-pins every
    /// seed-sensitive expectation in the workspace, so it must be loud.
    #[test]
    fn keystream_is_pinned() {
        let mut rng = ClanRng::seed_from_u64(0);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(first, KEYSTREAM_SEED0);
    }

    /// First four words of the seed-0 stream (one full SHA-256 block).
    const KEYSTREAM_SEED0: [u64; 4] = [
        0xada24569be614cb3,
        0xdcc7a5e789cade5e,
        0x71b975743249ce87,
        0xccdb694e302049fd,
    ];

    /// Twelve words = three refills: the cached-midstate path reproduces
    /// the stream the two-compression construction produced at the parent
    /// commit (values captured there).
    #[test]
    fn keystream_is_pinned_across_refills() {
        let mut rng = ClanRng::seed_from_u64(0);
        let words: Vec<u64> = (0..12).map(|_| rng.next_u64()).collect();
        assert_eq!(words[..4], KEYSTREAM_SEED0);
        assert_eq!(words[4..], KEYSTREAM_SEED0_BLOCKS_1_2);
    }

    const KEYSTREAM_SEED0_BLOCKS_1_2: [u64; 8] = [
        0x857642cd827d9b74,
        0x7c519e0ef50ee46a,
        0x5bee5d06bdd75557,
        0xe5b2bbe0ffeae73d,
        0xb31915e699fc9102,
        0x780b4bbccc11e4c4,
        0x38db8b30fe08ecbd,
        0x5bee43e68240b0e3,
    ];

    /// Block `i` straight from the definition, bypassing the midstate.
    fn reference_block(key: &[u8; 32], counter: u64) -> [u8; 32] {
        Hasher::new(BLOCK_DOMAIN)
            .chain(key)
            .chain_u64(counter)
            .finalize()
            .0
    }

    /// A generator whose next block is `counter`.
    fn rng_at(seed: u64, counter: u64) -> ClanRng {
        let mut rng = ClanRng::seed_from_u64(seed);
        rng.counter = counter;
        rng.used = BUF_BYTES;
        rng
    }

    #[test]
    fn midstate_matches_definition_up_to_and_beyond_2_pow_48() {
        let key = ClanRng::seed_from_u64(77).key;
        // Every position of the 2^48 switch within a refill, on both sides
        // of it, and the far ends of the counter's range.
        let around_switch = (MIDSTATE_COUNTERS - 2 * LANES as u64)..=(MIDSTATE_COUNTERS + 1);
        for start in [0, 1, 0xFFFF_FFFF, u64::MAX - 4]
            .into_iter()
            .chain(around_switch)
        {
            // Force the counter, then draw across the boundary.
            let mut rng = rng_at(77, start);
            for counter in start..start + 4 {
                let mut block = [0u8; BLOCK_BYTES];
                rng.fill_bytes(&mut block);
                assert_eq!(block, reference_block(&key, counter), "counter {counter}");
            }
        }
    }

    /// A refill that starts just below 2^64 computes blocks on both sides
    /// of the wrap: the counter wraps, it does not overflow.
    #[test]
    fn counter_wraps_within_one_refill() {
        let key = ClanRng::seed_from_u64(77).key;
        for start in (u64::MAX - LANES as u64)..=u64::MAX {
            let mut rng = rng_at(77, start);
            for i in 0..2 * LANES as u64 {
                let counter = start.wrapping_add(i);
                let mut block = [0u8; BLOCK_BYTES];
                rng.fill_bytes(&mut block);
                assert_eq!(block, reference_block(&key, counter), "counter {counter}");
            }
        }
    }

    /// The generator as it was when it buffered one block: the reference
    /// for how `next_u64`, `fill_bytes` and `clone` interleave.
    struct BlockAtATime {
        key: [u8; 32],
        counter: u64,
        buf: [u8; BLOCK_BYTES],
        used: usize,
    }

    impl BlockAtATime {
        fn refill(&mut self) {
            self.buf = reference_block(&self.key, self.counter);
            self.counter += 1;
            self.used = 0;
        }

        fn next_u64(&mut self) -> u64 {
            if self.used + 8 > BLOCK_BYTES {
                self.refill();
            }
            let bytes = self.buf[self.used..self.used + 8].try_into().unwrap();
            self.used += 8;
            u64::from_be_bytes(bytes)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for byte in dest {
                if self.used == BLOCK_BYTES {
                    self.refill();
                }
                *byte = self.buf[self.used];
                self.used += 1;
            }
        }
    }

    #[test]
    fn interleaved_draws_match_the_block_at_a_time_generator() {
        let mut driver = ClanRng::seed_from_u64(1);
        for case in 0..50 {
            let mut rng = ClanRng::seed_from_u64(case);
            let mut reference = BlockAtATime {
                key: rng.key,
                counter: 0,
                buf: [0; BLOCK_BYTES],
                used: BLOCK_BYTES,
            };
            for step in 0..200 {
                match driver.gen_u64_below(4) {
                    0 => {
                        // Unaligned lengths leave a block tail that the next
                        // word draw skips.
                        let len = driver.gen_usize(0, 3 * BLOCK_BYTES);
                        let (mut got, mut want) = (vec![0u8; len], vec![0u8; len]);
                        rng.fill_bytes(&mut got);
                        reference.fill_bytes(&mut want);
                        assert_eq!(got, want, "case {case} step {step}: {len} bytes");
                    }
                    1 => {
                        // A clone taken mid-buffer continues the same stream.
                        let mut fork = rng.clone();
                        assert_eq!(fork.next_u64(), rng.next_u64());
                        reference.next_u64();
                    }
                    _ => assert_eq!(
                        rng.next_u64(),
                        reference.next_u64(),
                        "case {case} step {step}"
                    ),
                }
            }
        }
    }

    #[test]
    fn fill_bytes_matches_word_stream() {
        // fill_bytes and next_u64 draw from the same keystream.
        let mut a = ClanRng::seed_from_u64(9);
        let mut buf = [0u8; 16];
        a.fill_bytes(&mut buf);
        let mut b = ClanRng::seed_from_u64(9);
        let w0 = b.next_u64().to_be_bytes();
        let w1 = b.next_u64().to_be_bytes();
        assert_eq!(&buf[..8], &w0);
        assert_eq!(&buf[8..], &w1);
    }

    #[test]
    fn fill_bytes_unaligned_lengths() {
        let mut rng = ClanRng::seed_from_u64(5);
        let mut big = [0u8; 100];
        rng.fill_bytes(&mut big);
        // 100 bytes span several refills; the stream must not repeat blocks.
        assert_ne!(&big[..32], &big[32..64]);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = ClanRng::seed_from_u64(11);
        for _ in 0..1000 {
            let v = rng.gen_u64(10, 20);
            assert!((10..20).contains(&v));
            let w = rng.gen_u64_inclusive(5, 5);
            assert_eq!(w, 5);
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn full_range_inclusive_does_not_overflow() {
        let mut rng = ClanRng::seed_from_u64(13);
        // Must not panic or loop forever.
        let _ = rng.gen_u64_inclusive(0, u64::MAX);
        let _ = rng.gen_u64_inclusive(u64::MAX, u64::MAX);
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = ClanRng::seed_from_u64(17);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.gen_u64_below(10) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "bucket {i} count {c}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = ClanRng::seed_from_u64(19);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(
            v,
            (0..50).collect::<Vec<u32>>(),
            "50 elements left in place"
        );
    }

    #[test]
    fn partial_shuffle_prefix_is_sampled_without_replacement() {
        let mut rng = ClanRng::seed_from_u64(23);
        let mut v: Vec<u32> = (0..100).collect();
        rng.partial_shuffle(&mut v, 10);
        let mut prefix = v[..10].to_vec();
        prefix.sort_unstable();
        prefix.dedup();
        assert_eq!(prefix.len(), 10, "duplicates in sample");
        let mut all = v.clone();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn os_entropy_streams_differ() {
        let mut a = ClanRng::from_os_entropy();
        let mut b = ClanRng::from_os_entropy();
        let va: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb, "two OS-entropy generators produced the same stream");
    }
}
