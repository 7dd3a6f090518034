//! Schnorr signatures over secp256k1 in the classic `(e, s)` form.
//!
//! * Sign: pick nonce `k`, compute `R = k·G`, challenge
//!   `e = H(R ‖ P ‖ m)`, response `s = k + e·x` where `x` is the secret key.
//! * Verify: recompute `R' = s·G − e·P` and accept iff `H(R' ‖ P ‖ m) = e`.
//!
//! The `(e, s)` form avoids point decompression entirely — no square roots
//! needed — at the cost of not supporting half-aggregation; aggregate
//! certificates in this workspace fold keyed-scheme signatures (see
//! [`crate::multisig`]), and a Schnorr aggregate never verifies.
//!
//! Nonces are derived deterministically as `H(x ‖ m ‖ "nonce")`, in the
//! spirit of RFC 6979.

use crate::digest::Hasher;
use crate::point::Point;
use crate::scalar::Scalar;

/// A 64-byte Schnorr signature: challenge `e` followed by response `s`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Signature(pub [u8; 64]);

/// The empty fold of an aggregate ([`crate::multisig::fold`]).
impl Default for Signature {
    fn default() -> Signature {
        Signature([0; 64])
    }
}

impl Signature {
    /// Splits into `(e, s)` scalars.
    pub fn parts(&self) -> (Scalar, Scalar) {
        let e = Scalar::from_be_bytes_reduce(self.0[..32].try_into().expect("32 bytes"));
        let s = Scalar::from_be_bytes_reduce(self.0[32..].try_into().expect("32 bytes"));
        (e, s)
    }

    /// Assembles from `(e, s)` scalars.
    pub fn from_parts(e: &Scalar, s: &Scalar) -> Signature {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&e.to_be_bytes());
        out[32..].copy_from_slice(&s.to_be_bytes());
        Signature(out)
    }
}

/// Computes the challenge scalar `e = H(R ‖ P ‖ m)`.
fn challenge(r: &Point, public: &[u8; 64], msg: &[u8]) -> Scalar {
    let digest = Hasher::new("clanbft/schnorr-challenge")
        .chain(&r.to_bytes())
        .chain(public)
        .chain(msg)
        .finalize();
    Scalar::from_be_bytes_reduce(digest.as_bytes())
}

/// Derives the deterministic nonce for `(secret, msg)`.
fn nonce(secret: &Scalar, msg: &[u8]) -> Scalar {
    let mut counter = 0u64;
    loop {
        let digest = Hasher::new("clanbft/schnorr-nonce")
            .chain(&secret.to_be_bytes())
            .chain(msg)
            .chain_u64(counter)
            .finalize();
        let k = Scalar::from_be_bytes_reduce(digest.as_bytes());
        if !k.is_zero() {
            return k;
        }
        counter += 1;
    }
}

/// Signs `msg` with the secret scalar, binding the given 64-byte public key.
pub fn sign(secret: &Scalar, public: &[u8; 64], msg: &[u8]) -> Signature {
    let k = nonce(secret, msg);
    let r = Point::generator().mul(&k);
    let e = challenge(&r, public, msg);
    let s = k.add(&e.mul(secret));
    Signature::from_parts(&e, &s)
}

/// Verifies `sig` over `msg` under the 64-byte uncompressed public key.
pub fn verify(public: &[u8; 64], msg: &[u8], sig: &Signature) -> bool {
    let p = match Point::from_bytes(public) {
        Some(p) => p,
        None => return false,
    };
    let (e, s) = sig.parts();
    if s.is_zero() {
        return false;
    }
    // R' = s·G − e·P.
    let r = Point::generator().mul(&s).add(&p.mul(&e.neg()));
    if r.is_infinity() {
        return false;
    }
    challenge(&r, public, msg) == e
}

/// Derives the 64-byte public key for a secret scalar.
///
/// # Panics
///
/// Panics if `secret` is zero (not a valid secret key).
pub fn public_key(secret: &Scalar) -> [u8; 64] {
    assert!(!secret.is_zero(), "secret key must be nonzero");
    Point::generator().mul(secret).to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keypair(seed: u64) -> (Scalar, [u8; 64]) {
        let sk = Scalar::from_u64(seed * 2654435761 + 1);
        let pk = public_key(&sk);
        (sk, pk)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (sk, pk) = keypair(1);
        let sig = sign(&sk, &pk, b"hello clan");
        assert!(verify(&pk, b"hello clan", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let (sk, pk) = keypair(2);
        let sig = sign(&sk, &pk, b"msg A");
        assert!(!verify(&pk, b"msg B", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let (sk, pk) = keypair(3);
        let (_, pk2) = keypair(4);
        let sig = sign(&sk, &pk, b"msg");
        assert!(!verify(&pk2, b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let (sk, pk) = keypair(5);
        let mut sig = sign(&sk, &pk, b"msg");
        sig.0[10] ^= 0x40;
        assert!(!verify(&pk, b"msg", &sig));
        let mut sig2 = sign(&sk, &pk, b"msg");
        sig2.0[50] ^= 0x01;
        assert!(!verify(&pk, b"msg", &sig2));
    }

    #[test]
    fn deterministic_signatures() {
        let (sk, pk) = keypair(6);
        assert_eq!(sign(&sk, &pk, b"m"), sign(&sk, &pk, b"m"));
        assert_ne!(sign(&sk, &pk, b"m"), sign(&sk, &pk, b"n"));
    }

    #[test]
    fn garbage_public_key_rejected() {
        let (sk, pk) = keypair(7);
        let sig = sign(&sk, &pk, b"msg");
        let garbage = [0u8; 64];
        assert!(!verify(&garbage, b"msg", &sig));
    }

    #[test]
    fn empty_message_ok() {
        let (sk, pk) = keypair(8);
        let sig = sign(&sk, &pk, b"");
        assert!(verify(&pk, b"", &sig));
    }
}
