//! Bitmap-indexed aggregate signature certificates.
//!
//! The paper uses BLS multi-signatures so that quorum certificates (e.g. the
//! `EC_r(m)` echo certificate of the two-round tribe-assisted RBC) can be
//! multicast at `O(κ + n)` bits. Pairing-based BLS is out of scope for this
//! workspace (see `DESIGN.md`, substitution 3), so an aggregate here is a
//! signer [`Bitmap`] plus the individual signatures, with:
//!
//! * **verification semantics** identical to BLS (all listed signers must
//!   have signed the same message), including the paper's optimization of
//!   verifying the aggregate first and falling back to per-signer checks to
//!   identify a culprit; and
//! * **wire size** charged by the network model at the BLS rate
//!   (`κ + n/8` bytes) rather than the in-memory size, so the paper's
//!   communication-complexity terms are preserved.

use crate::bitmap::Bitmap;
use crate::keys::Registry;
use crate::schnorr::Signature;

/// An aggregate of signatures by a subset of parties over one message.
#[derive(Clone, Debug)]
pub struct AggregateSignature {
    /// Which parties contributed, by registry index.
    pub signers: Bitmap,
    /// Signatures in increasing signer-index order (parallel to
    /// `signers.iter()`).
    sigs: Vec<Signature>,
}

/// Outcome of verifying an aggregate with culprit identification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AggregateVerdict {
    /// Every listed signer's contribution verified.
    Valid,
    /// Aggregate invalid; these signer indices produced bad signatures.
    Invalid(Vec<usize>),
}

impl AggregateSignature {
    /// Builds an aggregate from `(signer, signature)` pairs.
    ///
    /// Pairs may arrive in any order; duplicates keep the first signature.
    ///
    /// # Panics
    ///
    /// Panics if any signer index is `>= capacity`.
    pub fn aggregate(capacity: usize, pairs: &[(usize, Signature)]) -> AggregateSignature {
        // Sorted are 8-byte `signer << 32 | position` keys, not the 72-byte
        // pairs; each signature is then copied once, into place. Position
        // breaks ties, so the first of a signer's duplicates leads.
        let mut order: Vec<u64> = pairs
            .iter()
            .enumerate()
            .map(|(position, (signer, _))| {
                assert!(*signer < capacity, "signer {signer} of {capacity}");
                let signer = u32::try_from(*signer).expect("under 2^32 parties");
                let position = u32::try_from(position).expect("under 2^32 pairs");
                u64::from(signer) << 32 | u64::from(position)
            })
            .collect();
        order.sort_unstable();
        let mut signers = Bitmap::new(capacity);
        let mut sigs = Vec::with_capacity(pairs.len());
        for key in order {
            if signers.set((key >> 32) as usize) {
                sigs.push(pairs[key as u32 as usize].1);
            }
        }
        AggregateSignature { signers, sigs }
    }

    /// Number of distinct signers.
    pub fn count(&self) -> usize {
        self.signers.count()
    }

    /// Iterates over `(signer, signature)` contributions in signer order.
    pub fn contributions(&self) -> impl Iterator<Item = (usize, Signature)> + '_ {
        self.signers.iter().zip(self.sigs.iter().copied())
    }

    /// Verifies all contributions over `msg`, identifying culprits on
    /// failure (the paper's aggregate-then-blame strategy).
    pub fn verify(&self, registry: &Registry, msg: &[u8]) -> AggregateVerdict {
        let mut bad = Vec::new();
        for (slot, signer) in self.signers.iter().enumerate() {
            if !registry.verify(signer, msg, &self.sigs[slot]) {
                bad.push(signer);
            }
        }
        if bad.is_empty() {
            AggregateVerdict::Valid
        } else {
            AggregateVerdict::Invalid(bad)
        }
    }

    /// True iff the aggregate verifies and carries at least `threshold`
    /// distinct signers.
    pub fn certifies(&self, registry: &Registry, msg: &[u8], threshold: usize) -> bool {
        self.count() >= threshold && self.verify(registry, msg) == AggregateVerdict::Valid
    }

    /// The BLS-model wire size in bytes: one aggregate signature (64 bytes,
    /// standing in for κ) plus the signer bitmap.
    pub fn wire_bytes(&self) -> usize {
        64 + self.signers.wire_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{Authenticator, Registry, Scheme};
    use std::sync::Arc;

    fn setup(n: usize) -> (Arc<Registry>, Vec<Authenticator>) {
        let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 9);
        let auths = keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| Authenticator::new(i, kp, Arc::clone(&registry)))
            .collect();
        (registry, auths)
    }

    #[test]
    fn aggregate_verifies() {
        let (reg, auths) = setup(7);
        let msg = b"echo cert payload";
        let pairs: Vec<(usize, Signature)> =
            [0, 3, 5].iter().map(|&i| (i, auths[i].sign(msg))).collect();
        let agg = AggregateSignature::aggregate(7, &pairs);
        assert_eq!(agg.count(), 3);
        assert_eq!(agg.verify(&reg, msg), AggregateVerdict::Valid);
        assert!(agg.certifies(&reg, msg, 3));
        assert!(!agg.certifies(&reg, msg, 4));
    }

    #[test]
    fn culprit_identified() {
        let (reg, auths) = setup(5);
        let msg = b"payload";
        let mut pairs: Vec<(usize, Signature)> =
            [1, 2, 4].iter().map(|&i| (i, auths[i].sign(msg))).collect();
        // Party 2 contributes a signature over the wrong message.
        pairs[1] = (2, auths[2].sign(b"equivocation"));
        let agg = AggregateSignature::aggregate(5, &pairs);
        assert_eq!(agg.verify(&reg, msg), AggregateVerdict::Invalid(vec![2]));
        assert!(!agg.certifies(&reg, msg, 3));
    }

    #[test]
    fn duplicates_collapse() {
        let (reg, auths) = setup(4);
        let msg = b"m";
        let sig = auths[1].sign(msg);
        let agg = AggregateSignature::aggregate(4, &[(1, sig), (1, sig), (1, sig)]);
        assert_eq!(agg.count(), 1);
        assert_eq!(agg.verify(&reg, msg), AggregateVerdict::Valid);
    }

    #[test]
    fn unordered_input_ok() {
        let (reg, auths) = setup(6);
        let msg = b"m";
        let pairs: Vec<(usize, Signature)> =
            [5, 0, 3].iter().map(|&i| (i, auths[i].sign(msg))).collect();
        let agg = AggregateSignature::aggregate(6, &pairs);
        assert_eq!(agg.verify(&reg, msg), AggregateVerdict::Valid);
        let signers: Vec<usize> = agg.signers.iter().collect();
        assert_eq!(signers, vec![0, 3, 5]);
    }

    #[test]
    fn bls_wire_size_model() {
        let (_, auths) = setup(150);
        let msg = b"m";
        let pairs: Vec<(usize, Signature)> = (0..101).map(|i| (i, auths[i].sign(msg))).collect();
        let agg = AggregateSignature::aggregate(150, &pairs);
        // 64-byte aggregate + ⌈150/8⌉ = 19-byte bitmap, independent of the
        // number of actual contributions.
        assert_eq!(agg.wire_bytes(), 64 + 19);
    }
}
