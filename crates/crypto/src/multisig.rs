//! Bitmap-indexed aggregate signature certificates.
//!
//! The paper uses BLS multi-signatures so that quorum certificates (e.g. the
//! `EC_r(m)` echo certificate of the two-round tribe-assisted RBC) can be
//! multicast at `O(κ + n)` bits. Pairing-based BLS is out of scope for this
//! workspace (see `DESIGN.md`, substitution 3), so an aggregate here is a
//! signer [`Bitmap`] plus one 64-byte fold, the XOR of the signers'
//! keyed-scheme signatures, with:
//!
//! * **verification semantics** identical to BLS (all listed signers must
//!   have signed the same message; the verdict is all or nothing, naming no
//!   culprit), and aggregation on arrival (§7) with [`fold`]; and
//! * **wire size** charged by the network model at the BLS rate
//!   (`κ + n/8` bytes), which is also what it holds.

use crate::bitmap::Bitmap;
use crate::keys::Registry;
use crate::schnorr::Signature;

/// An aggregate of signatures by a subset of parties over one message.
#[derive(Clone, Debug)]
pub struct AggregateSignature {
    /// Which parties contributed, by registry index.
    pub signers: Bitmap,
    /// The XOR of every listed signer's signature, each folded once.
    pub fold: Signature,
}

/// Folds one contribution into `into`. XOR is its own inverse: the caller
/// folds each signer once (a bitmap, or the tally counting it, guards that).
pub fn fold(into: &mut Signature, sig: &Signature) {
    for (acc, byte) in into.0.iter_mut().zip(sig.0) {
        *acc ^= byte;
    }
}

impl AggregateSignature {
    /// Builds an aggregate from `(signer, signature)` pairs, in any order;
    /// of a signer's duplicates the first is folded.
    ///
    /// # Panics
    ///
    /// Panics if any signer index is `>= capacity`.
    pub fn aggregate(capacity: usize, pairs: &[(usize, Signature)]) -> AggregateSignature {
        let mut agg = AggregateSignature::from_parts(Bitmap::new(capacity), Signature::default());
        for (signer, sig) in pairs {
            if agg.signers.set(*signer) {
                fold(&mut agg.fold, sig);
            }
        }
        agg
    }

    /// An aggregate of `signers` whose contributions folded to `fold`.
    pub fn from_parts(signers: Bitmap, fold: Signature) -> AggregateSignature {
        AggregateSignature { signers, fold }
    }

    /// Number of distinct signers.
    pub fn count(&self) -> usize {
        self.signers.count()
    }

    /// Whether every listed signer signed `msg`: the fold of their
    /// [`Registry::expected`] signatures (none under Schnorr) is `fold`.
    pub fn verify(&self, registry: &Registry, msg: &[u8]) -> bool {
        let _prof = clanbft_profiler::scope("crypto.verify");
        let mut expected = Signature::default();
        for signer in self.signers.iter() {
            let Some(sig) = registry.expected(signer, msg) else {
                return false;
            };
            fold(&mut expected, &sig);
        }
        expected == self.fold
    }

    /// True iff the aggregate verifies and carries at least `threshold`
    /// distinct signers.
    pub fn certifies(&self, registry: &Registry, msg: &[u8], threshold: usize) -> bool {
        self.count() >= threshold && self.verify(registry, msg)
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

    fn setup(scheme: Scheme, n: usize) -> (Arc<Registry>, Vec<Authenticator>) {
        let (registry, keypairs) = Registry::generate(scheme, n, 9);
        let auths = keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| Authenticator::new(i, kp, Arc::clone(&registry)))
            .collect();
        (registry, auths)
    }

    #[test]
    fn aggregate_verifies() {
        let (reg, auths) = setup(Scheme::Keyed, 7);
        let msg = b"echo cert payload";
        let pairs: Vec<(usize, Signature)> =
            [0, 3, 5].iter().map(|&i| (i, auths[i].sign(msg))).collect();
        let agg = AggregateSignature::aggregate(7, &pairs);
        assert_eq!(agg.count(), 3);
        assert!(agg.verify(&reg, msg));
        assert!(agg.certifies(&reg, msg, 3));
        assert!(!agg.certifies(&reg, msg, 4));
        assert!(!agg.verify(&reg, b"another message"));
    }

    #[test]
    fn one_wrong_contribution_fails_the_whole_fold() {
        let (reg, auths) = setup(Scheme::Keyed, 5);
        let msg = b"payload";
        let mut pairs: Vec<(usize, Signature)> =
            [1, 2, 4].iter().map(|&i| (i, auths[i].sign(msg))).collect();
        // Party 2 contributes a signature over the wrong message.
        pairs[1] = (2, auths[2].sign(b"equivocation"));
        let agg = AggregateSignature::aggregate(5, &pairs);
        assert!(!agg.verify(&reg, msg));
        assert!(!agg.certifies(&reg, msg, 3));
        // Nor does the fold pass once the bad signer is dropped from the
        // bitmap: its contribution is still folded in.
        let mut without = Bitmap::new(5);
        for i in [1, 4] {
            without.set(i);
        }
        assert!(!AggregateSignature::from_parts(without, agg.fold).verify(&reg, msg));
    }

    #[test]
    fn duplicates_collapse() {
        let (reg, auths) = setup(Scheme::Keyed, 4);
        let msg = b"m";
        let sig = auths[1].sign(msg);
        // An even number of copies would cancel if each were folded.
        let agg = AggregateSignature::aggregate(4, &[(1, sig), (1, sig)]);
        assert_eq!(agg.count(), 1);
        assert_eq!(agg.fold, sig);
        assert!(agg.verify(&reg, msg));
        // The first of a signer's duplicates is the one folded.
        let other = auths[2].sign(msg);
        let agg = AggregateSignature::aggregate(4, &[(1, sig), (1, other)]);
        assert!(agg.verify(&reg, msg));
        let agg = AggregateSignature::aggregate(4, &[(1, other), (1, sig)]);
        assert!(!agg.verify(&reg, msg));
    }

    #[test]
    fn unordered_input_ok() {
        let (reg, auths) = setup(Scheme::Keyed, 6);
        let msg = b"m";
        let pairs: Vec<(usize, Signature)> =
            [5, 0, 3].iter().map(|&i| (i, auths[i].sign(msg))).collect();
        let agg = AggregateSignature::aggregate(6, &pairs);
        assert!(agg.verify(&reg, msg));
        let signers: Vec<usize> = agg.signers.iter().collect();
        assert_eq!(signers, vec![0, 3, 5]);
    }

    #[test]
    fn a_schnorr_registrys_aggregate_never_verifies() {
        let (reg, auths) = setup(Scheme::Schnorr, 3);
        let msg = b"m";
        let pairs: Vec<(usize, Signature)> = (0..3).map(|i| (i, auths[i].sign(msg))).collect();
        assert!(pairs.iter().all(|(i, sig)| reg.verify(*i, msg, sig)));
        let agg = AggregateSignature::aggregate(3, &pairs);
        assert!(!agg.verify(&reg, msg));
        assert!(!agg.certifies(&reg, msg, 1));
    }

    #[test]
    fn bls_wire_size_model() {
        let (_, auths) = setup(Scheme::Keyed, 150);
        let msg = b"m";
        let pairs: Vec<(usize, Signature)> = (0..101).map(|i| (i, auths[i].sign(msg))).collect();
        let agg = AggregateSignature::aggregate(150, &pairs);
        // 64-byte aggregate + ⌈150/8⌉ = 19-byte bitmap, independent of the
        // number of actual contributions.
        assert_eq!(agg.wire_bytes(), 64 + 19);
    }
}
