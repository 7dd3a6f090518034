//! SHA-256 as specified by FIPS 180-4.
//!
//! A dependency-free implementation with two compression backends behind
//! one padding/buffering front end: a portable scalar kernel, and on
//! x86-64 hosts whose CPU reports the SHA extensions a kernel built on the
//! `sha256rnds2` / `sha256msg1` / `sha256msg2` instructions (`std::arch`).
//! The kernel is picked inside `compress` from what the CPU reports —
//! never from a setting — and both produce identical digests: the test
//! suite below and `tests/crypto_props.rs` run every vector against both.
//! [`compress_pair`] is the same choice for two independent single-block
//! compressions (the PRNG's counter blocks), which the SHA-NI kernel
//! interleaves.
//!
//! Input is processed incrementally through [`Sha256::update`] and the
//! 32-byte digest produced by [`Sha256::finalize`]. Validated against the
//! NIST short-message vectors and the classic `"abc"` / million-`a` vectors.

/// Initial hash values: the first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants: the first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
static K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher state.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    /// Partial block buffer.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finishes the computation and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; 32] {
        self.finalize_with(compress)
    }

    /// The chaining state, for a caller that compresses further blocks
    /// itself ([`compress_pair`]).
    ///
    /// # Panics
    ///
    /// Panics unless a whole number of blocks has been absorbed.
    pub(crate) fn block_aligned_state(&self) -> [u32; 8] {
        assert_eq!(self.buf_len, 0, "a partial block is buffered");
        self.state
    }

    /// `update` over an explicit compression kernel (the tests run the
    /// front end over [`compress_scalar`] as well).
    fn update_with(&mut self, data: &[u8], kernel: impl Fn(&mut [u32; 8], &[u8])) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 64 {
                return;
            }
            kernel(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks go to the kernel in one call, straight from `data`.
        let whole = input.len() & !63;
        if whole > 0 {
            kernel(&mut self.state, &input[..whole]);
            input = &input[whole..];
        }
        self.buf[..input.len()].copy_from_slice(input);
        self.buf_len = input.len();
    }

    fn finalize_with(mut self, kernel: impl Fn(&mut [u32; 8], &[u8])) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length —
        // one extra block only when the length field does not fit.
        let mut block = self.buf;
        block[self.buf_len] = 0x80;
        block[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            kernel(&mut self.state, &block);
            block = [0u8; 64];
        }
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
        kernel(&mut self.state, &block);
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Whether this CPU has what the [`shani`] kernels need.
#[cfg(target_arch = "x86_64")]
fn has_sha_ni() -> bool {
    std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
}

/// Runs the compression function over `blocks` (a whole number of 64-byte
/// blocks) on the fastest kernel this CPU has.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if has_sha_ni() {
        // SAFETY: the CPU just reported sha, ssse3 and sse4.1 (sse2 is part
        // of the x86-64 baseline), which is the kernel's only precondition.
        unsafe { shani::compress(state, blocks) };
        return;
    }
    compress_scalar(state, blocks)
}

/// Two independent compressions from one state: element `i` is `state`
/// after absorbing `blocks[i]` alone. What a counter-mode generator asks for
/// (one midstate, many counter blocks); a single-block compression is bound
/// by the latency of its 64 dependent rounds, and the SHA-NI kernel runs
/// the two chains interleaved in roughly the time of one.
#[doc(hidden)]
pub fn compress_pair(state: &[u32; 8], blocks: &[[u8; 64]; 2]) -> [[u32; 8]; 2] {
    #[cfg(target_arch = "x86_64")]
    if has_sha_ni() {
        // SAFETY: the CPU just reported sha, ssse3 and sse4.1 (sse2 is part
        // of the x86-64 baseline), which is the kernel's only precondition.
        return unsafe { shani::compress_pair(state, blocks) };
    }
    compress_pair_scalar(state, blocks)
}

/// [`compress_pair`] on the portable kernel whatever the CPU offers: the
/// fallback, and the reference the cross-kernel tests compare against.
#[doc(hidden)]
pub fn compress_pair_scalar(state: &[u32; 8], blocks: &[[u8; 64]; 2]) -> [[u32; 8]; 2] {
    let mut out = [*state; 2];
    for (state, block) in out.iter_mut().zip(blocks) {
        compress_scalar(state, block);
    }
    out
}

/// The portable kernel: FIPS 180-4 §6.2.2, one block at a time.
fn compress_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-NI kernels (Intel SHA extensions), after Intel's reference
/// sequence: the state lives in two registers as `ABEF` / `CDGH`, each
/// `sha256rnds2` performs two rounds, and the message schedule is extended
/// four words at a time with `sha256msg1` / `sha256msg2`.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// `state` as the `(ABEF, CDGH)` register pair.
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn load_state(state: &[u32; 8]) -> (__m128i, __m128i) {
        // `state` is 8 u32 = two unaligned 16-byte loads.
        let abcd = _mm_loadu_si128(state.as_ptr().cast());
        let efgh = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let cdab = _mm_shuffle_epi32(abcd, 0xB1);
        let hgfe = _mm_shuffle_epi32(efgh, 0x1B);
        (
            _mm_alignr_epi8(cdab, hgfe, 8),
            _mm_blend_epi16(hgfe, cdab, 0xF0),
        )
    }

    /// The inverse of [`load_state`].
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn store_state(abef: __m128i, cdgh: __m128i, state: &mut [u32; 8]) {
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }

    /// One block per lane: absorbs `blocks[l]` into lane `l`'s state. The
    /// lanes are independent dependency chains issued group by group, so
    /// with two of them one lane's `sha256rnds2` latency is covered by the
    /// other's work.
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn absorb<const L: usize>(
        abef: &mut [__m128i; L],
        cdgh: &mut [__m128i; L],
        blocks: [&[u8; 64]; L],
    ) {
        // Big-endian word loads: reverse the bytes of each 32-bit lane.
        let bswap = _mm_set_epi64x(0x0c0d0e0f_08090a0b, 0x04050607_00010203);
        let (abef_in, cdgh_in) = (*abef, *cdgh);
        // Pointer reads below: a block is exactly 64 bytes = four 16-byte
        // loads; `K` is 64 u32 and `4 * g + 3 < 64`.
        let mut w = [[_mm_setzero_si128(); 4]; L];
        for l in 0..L {
            for (i, lane) in w[l].iter_mut().enumerate() {
                let word = _mm_loadu_si128(blocks[l].as_ptr().add(16 * i).cast());
                *lane = _mm_shuffle_epi8(word, bswap);
            }
        }
        // Sixteen groups of four rounds. `w[l][g % 4]` holds W[4g..4g+4]:
        // loaded for the first four groups, derived for the rest from the
        // previous four groups (FIPS 180-4 §6.2.2 step 1).
        for g in 0..16 {
            let k = _mm_loadu_si128(K.as_ptr().add(4 * g).cast());
            for l in 0..L {
                let w = &mut w[l];
                if g >= 4 {
                    let (w4, w3, w2, w1) =
                        (w[g & 3], w[(g + 1) & 3], w[(g + 2) & 3], w[(g + 3) & 3]);
                    let partial =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w4, w3), _mm_alignr_epi8(w1, w2, 4));
                    w[g & 3] = _mm_sha256msg2_epu32(partial, w1);
                }
                let wk = _mm_add_epi32(w[g & 3], k);
                cdgh[l] = _mm_sha256rnds2_epu32(cdgh[l], abef[l], wk);
                abef[l] = _mm_sha256rnds2_epu32(abef[l], cdgh[l], _mm_shuffle_epi32(wk, 0x0E));
            }
        }
        for l in 0..L {
            abef[l] = _mm_add_epi32(abef[l], abef_in[l]);
            cdgh[l] = _mm_add_epi32(cdgh[l], cdgh_in[l]);
        }
    }

    /// Compresses every 64-byte block of `blocks` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support the `sha`, `sse2`, `ssse3` and `sse4.1`
    /// features. Trailing bytes beyond a whole number of blocks are ignored.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let (abef, cdgh) = load_state(state);
        let (mut abef, mut cdgh) = ([abef], [cdgh]);
        for block in blocks.chunks_exact(64) {
            let block = block.try_into().expect("chunks are 64 bytes");
            absorb(&mut abef, &mut cdgh, [block]);
        }
        store_state(abef[0], cdgh[0], state);
    }

    /// `state` after absorbing each of `blocks` alone, the two compressions
    /// interleaved.
    ///
    /// # Safety
    ///
    /// As for [`compress`].
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_pair(state: &[u32; 8], blocks: &[[u8; 64]; 2]) -> [[u32; 8]; 2] {
        let (abef, cdgh) = load_state(state);
        let (mut abef, mut cdgh) = ([abef; 2], [cdgh; 2]);
        absorb(&mut abef, &mut cdgh, [&blocks[0], &blocks[1]]);
        let mut out = [[0u32; 8]; 2];
        for l in 0..2 {
            store_state(abef[l], cdgh[l], &mut out[l]);
        }
        out
    }
}

/// One-shot convenience: `sha256(data)`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// `sha256(data)` on the portable kernel whatever the CPU offers: the
/// reference that cross-kernel tests outside this module compare against.
#[doc(hidden)]
pub fn sha256_scalar(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update_with(data, compress_scalar);
    h.finalize_with(compress_scalar)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// Both kernels: the portable one and whatever this CPU selects (the
    /// same kernel twice on a host without SHA-NI, which is harmless).
    const KERNELS: [(&str, Kernel); 2] = [("scalar", compress_scalar), ("detected", compress)];

    /// Digest of `parts` absorbed one `update` each, over `kernel`.
    fn digest_on(kernel: Kernel, parts: &[&[u8]]) -> String {
        let mut h = Sha256::new();
        for part in parts {
            h.update_with(part, kernel);
        }
        hex(&h.finalize_with(kernel))
    }

    #[test]
    fn published_vectors_on_every_kernel() {
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (name, kernel) in KERNELS {
            for (msg, want) in vectors {
                assert_eq!(digest_on(kernel, &[msg]), want, "{name}");
            }
        }
        assert_eq!(hex(&sha256(b"abc")), vectors[1].1);
        assert_eq!(hex(&sha256_scalar(b"abc")), vectors[1].1);
    }

    #[test]
    fn million_a_vector() {
        let chunk = [b'a'; 1000];
        let parts = vec![&chunk[..]; 1000];
        for (name, kernel) in KERNELS {
            assert_eq!(
                digest_on(kernel, &parts),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u32..1000).map(|i| (i % 251) as u8).collect();
        let want = digest_on(compress_scalar, &[&data]);
        assert_eq!(hex(&sha256(&data)), want);
        for (name, kernel) in KERNELS {
            for split in [0, 1, 17, 63, 64, 65, 127, 128, 129, 500, 999, 1000] {
                assert_eq!(
                    digest_on(kernel, &[&data[..split], &data[split..]]),
                    want,
                    "{name} split {split}"
                );
            }
        }
    }

    #[test]
    fn exact_block_boundary() {
        // 55, 56 and 64 byte messages exercise every padding branch.
        for (name, kernel) in KERNELS {
            for n in [0usize, 1, 55, 56, 57, 63, 64, 65, 119, 120, 128] {
                let data = vec![0xa5u8; n];
                let want = digest_on(compress_scalar, &[&data]);
                let bytes: Vec<&[u8]> = data.chunks(1).collect();
                assert_eq!(digest_on(kernel, &bytes), want, "{name} len {n}");
            }
        }
    }
}
