//! Timeout and no-vote certificates (Sailfish machinery, paper Fig. 4).
//!
//! * A **timeout certificate** for round `r` proves that `2f+1` parties
//!   timed out waiting for round `r`'s leader vertex; it licenses vertices
//!   of round `r+1` to omit a strong edge to that leader vertex.
//! * A **no-vote certificate** for round `r` proves that `2f+1` parties
//!   promised not to vote for round `r`'s leader vertex, which the round
//!   `r+1` leader must carry when its vertex lacks a strong edge to the
//!   round-`r` leader vertex.

use crate::codec::{Decode, DecodeError, Encode, Reader, Writer};
use crate::ids::Round;
use clanbft_crypto::{AggregateSignature, Digest, Hasher, Registry, Signature};

/// Computes the digest that timeout messages for `round` sign.
pub fn timeout_digest(round: Round) -> Digest {
    Hasher::new("clanbft/timeout").chain_u64(round.0).finalize()
}

/// Computes the digest that no-vote messages for `round` sign.
pub fn no_vote_digest(round: Round) -> Digest {
    Hasher::new("clanbft/no-vote").chain_u64(round.0).finalize()
}

/// A certificate aggregating `2f+1` signed timeout messages for a round.
#[derive(Clone, Debug)]
pub struct TimeoutCert {
    /// The round the parties timed out on.
    pub round: Round,
    /// Aggregated signatures over [`timeout_digest`].
    pub agg: AggregateSignature,
}

impl TimeoutCert {
    /// Assembles a certificate from `(signer, signature)` pairs.
    pub fn new(round: Round, capacity: usize, pairs: &[(usize, Signature)]) -> TimeoutCert {
        TimeoutCert {
            round,
            agg: AggregateSignature::aggregate(capacity, pairs),
        }
    }

    /// Verifies the certificate against a quorum threshold.
    pub fn verify(&self, registry: &Registry, quorum: usize) -> bool {
        self.agg
            .certifies(registry, timeout_digest(self.round).as_bytes(), quorum)
    }
}

/// A certificate aggregating `2f+1` signed no-vote messages for a round.
#[derive(Clone, Debug)]
pub struct NoVoteCert {
    /// The round whose leader vertex the parties refused to vote for.
    pub round: Round,
    /// Aggregated signatures over [`no_vote_digest`].
    pub agg: AggregateSignature,
}

impl NoVoteCert {
    /// Assembles a certificate from `(signer, signature)` pairs.
    pub fn new(round: Round, capacity: usize, pairs: &[(usize, Signature)]) -> NoVoteCert {
        NoVoteCert {
            round,
            agg: AggregateSignature::aggregate(capacity, pairs),
        }
    }

    /// Verifies the certificate against a quorum threshold.
    pub fn verify(&self, registry: &Registry, quorum: usize) -> bool {
        self.agg
            .certifies(registry, no_vote_digest(self.round).as_bytes(), quorum)
    }
}

fn encode_agg(agg: &AggregateSignature, w: &mut Writer) {
    w.put_u32(agg.signers.capacity() as u32);
    let pairs: Vec<(u32, clanbft_crypto::Signature)> =
        agg.contributions().map(|(i, s)| (i as u32, s)).collect();
    w.put_u32(pairs.len() as u32);
    for (i, s) in pairs {
        w.put_u32(i);
        s.encode(w);
    }
}

/// Largest signer capacity a decoded certificate may claim. The capacity
/// sizes the signer bitmap whatever else the input holds: 4 096 parties cost
/// a hostile 16-byte certificate 512 bytes (the limit was 2^20: 128 KiB).
const MAX_SIGNERS: usize = 4096;

fn decode_agg(r: &mut Reader<'_>) -> Result<AggregateSignature, DecodeError> {
    let capacity = r.get_u32()? as usize;
    if capacity > MAX_SIGNERS {
        return Err(DecodeError::LengthOverflow(capacity as u64));
    }
    let count = r.get_len()?;
    // Reserve for the pairs the input can still hold, 68 bytes each.
    let mut pairs = Vec::with_capacity(count.min(r.remaining() / 68));
    for _ in 0..count {
        let i = r.get_u32()? as usize;
        if i >= capacity {
            return Err(DecodeError::LengthOverflow(i as u64));
        }
        let sig = Signature::decode(r)?;
        pairs.push((i, sig));
    }
    Ok(AggregateSignature::aggregate(capacity, &pairs))
}

// Certificates travel inside vertices. `encoded_len` charges the BLS-model
// wire size (64-byte aggregate + signer bitmap + round) per the paper;
// `encode`/`decode` carry the full signature set so decoded certificates
// remain verifiable in the live threaded transport.
impl Encode for TimeoutCert {
    fn encode(&self, w: &mut Writer) {
        self.round.encode(w);
        encode_agg(&self.agg, w);
    }

    fn encoded_len(&self) -> usize {
        self.round.encoded_len() + self.agg.wire_bytes()
    }
}

impl Decode for TimeoutCert {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let round = Round::decode(r)?;
        let agg = decode_agg(r)?;
        Ok(TimeoutCert { round, agg })
    }
}

impl Encode for NoVoteCert {
    fn encode(&self, w: &mut Writer) {
        self.round.encode(w);
        encode_agg(&self.agg, w);
    }

    fn encoded_len(&self) -> usize {
        self.round.encoded_len() + self.agg.wire_bytes()
    }
}

impl Decode for NoVoteCert {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let round = Round::decode(r)?;
        let agg = decode_agg(r)?;
        Ok(NoVoteCert { round, agg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_crypto::{Authenticator, Registry, Scheme};
    use std::sync::Arc;

    fn setup(n: usize) -> (Arc<Registry>, Vec<Authenticator>) {
        let (registry, keypairs) = Registry::generate(Scheme::Keyed, n, 3);
        let auths = keypairs
            .into_iter()
            .enumerate()
            .map(|(i, kp)| Authenticator::new(i, kp, Arc::clone(&registry)))
            .collect();
        (registry, auths)
    }

    #[test]
    fn timeout_cert_verifies() {
        let (reg, auths) = setup(4);
        let round = Round(9);
        let d = timeout_digest(round);
        let pairs: Vec<_> = (0..3).map(|i| (i, auths[i].sign_digest(&d))).collect();
        let tc = TimeoutCert::new(round, 4, &pairs);
        assert!(tc.verify(&reg, 3));
        assert!(!tc.verify(&reg, 4));
    }

    #[test]
    fn no_vote_cert_rejects_cross_round() {
        let (reg, auths) = setup(4);
        let d = no_vote_digest(Round(1));
        let pairs: Vec<_> = (0..3).map(|i| (i, auths[i].sign_digest(&d))).collect();
        // Certificate claims round 2, but signatures cover round 1.
        let nvc = NoVoteCert::new(Round(2), 4, &pairs);
        assert!(!nvc.verify(&reg, 3));
    }

    #[test]
    fn domains_differ() {
        assert_ne!(timeout_digest(Round(4)), no_vote_digest(Round(4)));
        assert_ne!(timeout_digest(Round(4)), timeout_digest(Round(5)));
    }

    #[test]
    fn codec_roundtrip_preserves_signers() {
        let (_, auths) = setup(7);
        let round = Round(3);
        let d = timeout_digest(round);
        let pairs: Vec<_> = [0usize, 2, 5]
            .iter()
            .map(|&i| (i, auths[i].sign_digest(&d)))
            .collect();
        let tc = TimeoutCert::new(round, 7, &pairs);
        let back = TimeoutCert::from_bytes(&tc.to_bytes()).unwrap();
        assert_eq!(back.round, round);
        let signers: Vec<usize> = back.agg.signers.iter().collect();
        assert_eq!(signers, vec![0, 2, 5]);
    }

    #[test]
    fn wire_size_is_bls_model() {
        let (_, auths) = setup(150);
        let round = Round(1);
        let d = timeout_digest(round);
        let pairs: Vec<_> = (0..101).map(|i| (i, auths[i].sign_digest(&d))).collect();
        let tc = TimeoutCert::new(round, 150, &pairs);
        assert_eq!(tc.encoded_len(), 8 + 64 + 19);
    }
}
