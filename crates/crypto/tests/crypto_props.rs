//! Property-based tests for the cryptographic substrate: 256-bit modular
//! arithmetic cross-checked against `u128`, field/scalar algebra laws,
//! signature robustness against bit flips, and the all-or-nothing verdict of
//! a folded aggregate.
//!
//! Runs on the in-tree `clanbft-testkit` harness; case counts match or
//! exceed the original proptest configuration (48 cases per property).
//! A failing case prints a `TESTKIT_SEED=... TESTKIT_CASE=...` line that
//! replays it exactly.

use clanbft_crypto::field::Fe;
use clanbft_crypto::keys::{Registry, Scheme};
use clanbft_crypto::scalar::Scalar;
use clanbft_crypto::schnorr;
use clanbft_crypto::sha256::{compress_pair, compress_pair_scalar, sha256_scalar, Sha256};
use clanbft_crypto::u256::{mod_add, mod_mul, mod_sub, U256};
use clanbft_crypto::{AggregateSignature, Signature};
use clanbft_testkit::{check, check_shrink, tk_assert, tk_assert_eq, Gen};
use std::collections::BTreeSet;

const CASES: u32 = 48;

fn arb_u256(g: &mut Gen) -> U256 {
    U256(g.array4_u64())
}

#[test]
fn u256_add_sub_inverse() {
    check_shrink(
        "u256_add_sub_inverse",
        CASES,
        |g| (g.array4_u64(), g.array4_u64()),
        |&(a, b)| {
            let (a, b) = (U256(a), U256(b));
            let (sum, carry) = a.adc(&b);
            let (back, borrow) = sum.sbb(&b);
            tk_assert_eq!(back, a);
            tk_assert_eq!(carry, borrow); // overflow mirrors underflow
            Ok(())
        },
    );
}

#[test]
fn u256_mul_matches_u128() {
    check_shrink(
        "u256_mul_matches_u128",
        CASES,
        |g| (g.u64(), g.u64()),
        |&(a, b)| {
            let wide = U256::from_u64(a).mul_wide(&U256::from_u64(b));
            let expect = a as u128 * b as u128;
            tk_assert_eq!(wide.0[0], expect as u64);
            tk_assert_eq!(wide.0[1], (expect >> 64) as u64);
            tk_assert!(wide.0[2..].iter().all(|&w| w == 0), "high limbs nonzero");
            Ok(())
        },
    );
}

#[test]
fn u256_mod_ops_match_u128() {
    check_shrink(
        "u256_mod_ops_match_u128",
        CASES,
        |g| (g.u64(), g.u64(), g.u64_in(2, u64::MAX)),
        |&(a, b, m)| {
            if m < 2 {
                return Ok(()); // shrunk below the modulus precondition
            }
            let am = U256::from_u64(a % m);
            let bm = U256::from_u64(b % m);
            let modulus = U256::from_u64(m);
            let add = mod_add(&am, &bm, &modulus);
            tk_assert_eq!(
                add,
                U256::from_u64(((a % m) as u128 + (b % m) as u128).rem_euclid(m as u128) as u64)
            );
            let sub = mod_sub(&am, &bm, &modulus);
            tk_assert_eq!(
                sub,
                U256::from_u64((((a % m) as i128 - (b % m) as i128).rem_euclid(m as i128)) as u64)
            );
            let mul = mod_mul(&am, &bm, &modulus);
            tk_assert_eq!(
                mul,
                U256::from_u64(((a % m) as u128 * (b % m) as u128 % m as u128) as u64)
            );
            Ok(())
        },
    );
}

#[test]
fn u256_bytes_roundtrip() {
    check_shrink(
        "u256_bytes_roundtrip",
        CASES,
        |g| g.array4_u64(),
        |&a| {
            let a = U256(a);
            tk_assert_eq!(U256::from_be_bytes(&a.to_be_bytes()), a);
            Ok(())
        },
    );
}

#[test]
fn field_ring_laws() {
    check(
        "field_ring_laws",
        CASES,
        |g| (arb_u256(g), arb_u256(g), arb_u256(g)),
        |&(a, b, c)| {
            let (a, b, c) = (Fe::from_u256(a), Fe::from_u256(b), Fe::from_u256(c));
            tk_assert_eq!(a.add(&b), b.add(&a));
            tk_assert_eq!(a.mul(&b), b.mul(&a));
            tk_assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
            tk_assert_eq!(a.add(&b).mul(&c), a.mul(&c).add(&b.mul(&c)));
            tk_assert_eq!(a.sub(&a), Fe::ZERO);
            tk_assert_eq!(a.mul(&Fe::ONE), a);
            Ok(())
        },
    );
}

#[test]
fn field_inverse() {
    check("field_inverse", CASES, arb_u256, |&a| {
        let a = Fe::from_u256(a);
        if !a.is_zero() {
            tk_assert_eq!(a.mul(&a.invert()), Fe::ONE);
        }
        Ok(())
    });
}

#[test]
fn scalar_ring_laws() {
    check(
        "scalar_ring_laws",
        CASES,
        |g| (arb_u256(g), arb_u256(g)),
        |&(a, b)| {
            let (a, b) = (Scalar::from_u256(a), Scalar::from_u256(b));
            tk_assert_eq!(a.add(&b), b.add(&a));
            tk_assert_eq!(a.mul(&b), b.mul(&a));
            tk_assert_eq!(a.add(&a.neg()), Scalar::ZERO);
            if !a.is_zero() {
                tk_assert_eq!(a.mul(&a.invert()), Scalar::ONE);
            }
            Ok(())
        },
    );
}

#[test]
fn sha256_backends_agree_at_any_length_and_split() {
    // The portable kernel is the reference; `Sha256` runs whatever this CPU
    // selects (SHA-NI where present). Lengths straddle several blocks
    // and both padding branches; the split points exercise the buffered and
    // the straight-from-input paths of `update`.
    check(
        "sha256_backends_agree_at_any_length_and_split",
        CASES * 4,
        |g| {
            let data = g.bytes(0, 700);
            let a = g.usize_in(0, data.len() + 1);
            let b = g.usize_in(a, data.len() + 1);
            (data, a, b)
        },
        |(data, a, b)| {
            let want = sha256_scalar(data);
            let mut split = Sha256::new();
            split.update(&data[..*a]);
            split.update(&data[*a..*b]);
            split.update(&data[*b..]);
            tk_assert_eq!(split.finalize(), want);
            Ok(())
        },
    );
}

#[test]
fn sha256_pair_kernel_agrees_with_the_scalar_kernel() {
    // Any chaining state and any two blocks, not just those a hash of real
    // data reaches: the interleaved kernel must keep its lanes apart.
    check(
        "sha256_pair_kernel_agrees_with_the_scalar_kernel",
        CASES * 4,
        |g| {
            let state: [u32; 8] = std::array::from_fn(|_| g.u32());
            let blocks: [[u8; 64]; 2] = std::array::from_fn(|_| std::array::from_fn(|_| g.u8()));
            (state, blocks)
        },
        |(state, blocks)| {
            let got = compress_pair(state, blocks);
            tk_assert_eq!(got, compress_pair_scalar(state, blocks));
            // Each lane alone, in either seat.
            let [a, b] = *blocks;
            tk_assert_eq!(compress_pair(state, &[b, a]), [got[1], got[0]]);
            Ok(())
        },
    );
}

#[test]
fn schnorr_rejects_any_single_bit_flip() {
    check_shrink(
        "schnorr_rejects_any_single_bit_flip",
        CASES,
        |g| (g.u64_in(1, u64::MAX), g.usize_in(0, 64), g.u8_in(0, 8)),
        |&(seed, byte, bit)| {
            if seed == 0 || byte >= 64 || bit >= 8 {
                return Ok(()); // shrunk outside the generator's range
            }
            let sk = Scalar::from_u64(seed);
            let pk = schnorr::public_key(&sk);
            let msg = b"bit flip resistance";
            let mut sig = schnorr::sign(&sk, &pk, msg);
            tk_assert!(schnorr::verify(&pk, msg, &sig), "honest signature rejected");
            sig.0[byte] ^= 1 << bit;
            tk_assert!(
                !schnorr::verify(&pk, msg, &sig),
                "accepted after flipping byte {byte} bit {bit}"
            );
            Ok(())
        },
    );
}

/// An aggregate of a random signer subset of a tribe of 1 to 64, with
/// duplicates, verifies iff none of the contributions it folded was
/// altered: the first of each signer's pairs. One pair may be altered — a
/// folded one, or an ignored later duplicate. The aggregate counts each
/// distinct signer once.
#[test]
fn an_aggregate_verifies_iff_no_folded_contribution_was_altered() {
    check_shrink(
        "an_aggregate_verifies_iff_no_folded_contribution_was_altered",
        256,
        |g| (g.u8(), g.vec(0, 48, |g| g.u8()), g.u8(), g.u8(), g.u8()),
        |&(n, ref picks, alter, at, flip)| {
            let n = 1 + usize::from(n) % 64;
            let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 7);
            let msg = b"echo statement";
            let mut pairs: Vec<(usize, Signature)> = picks
                .iter()
                .map(|&p| usize::from(p) % n)
                .map(|signer| (signer, keypairs[signer].sign(msg)))
                .collect();
            let first = |k: usize| pairs[..k].iter().all(|(s, _)| *s != pairs[k].0);
            let (folded, ignored): (Vec<usize>, Vec<usize>) =
                (0..pairs.len()).partition(|&k| first(k));
            let targets = match alter % 3 {
                0 => &[][..],
                1 => &folded[..],
                _ => &ignored[..],
            };
            let altered = (!targets.is_empty()).then(|| targets[usize::from(at) % targets.len()]);
            if let Some(k) = altered {
                pairs[k].1 .0[usize::from(flip) % 64] ^= 1 << (flip % 8);
            }
            let agg = AggregateSignature::aggregate(n, &pairs);
            let distinct: BTreeSet<usize> = pairs.iter().map(|(s, _)| *s).collect();
            tk_assert_eq!(agg.count(), distinct.len());
            tk_assert!(
                agg.signers.iter().eq(distinct.iter().copied()),
                "signer set"
            );
            let spoiled = altered.is_some_and(|k| folded.contains(&k));
            tk_assert_eq!(agg.verify(&registry, msg), !spoiled);
            Ok(())
        },
    );
}
