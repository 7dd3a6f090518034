//! Timeout and no-vote certificates (Sailfish machinery, paper Fig. 4).
//!
//! * A **timeout certificate** for round `r` proves that `2f+1` parties
//!   timed out waiting for round `r`'s leader vertex; it licenses vertices
//!   of round `r+1` to omit a strong edge to that leader vertex.
//! * A **no-vote certificate** for round `r` proves that `2f+1` parties
//!   promised not to vote for round `r`'s leader vertex, which the round
//!   `r+1` leader must carry when its vertex lacks a strong edge to the
//!   round-`r` leader vertex.
//!
//! Both are one [`RoundCert`]: the round and the aggregate, with a marker
//! for the statement signed, which picks the digest and nothing else.

use crate::codec::{Decode, DecodeError, Encode, Reader, Writer};
use crate::ids::Round;
use clanbft_crypto::{AggregateSignature, Bitmap, Digest, Hasher, Registry, Signature};
use std::marker::PhantomData;

/// What the signers of a [`RoundCert`] stated about its round: the marker
/// picks the digest they signed.
pub trait Statement {
    /// The digest a statement about `round` signs.
    fn digest(round: Round) -> Digest;
}

/// The statement "round `r`'s leader vertex did not arrive in time", which
/// timeout messages sign.
#[derive(Clone, Copy, Debug)]
pub struct TimedOut;

impl Statement for TimedOut {
    fn digest(round: Round) -> Digest {
        Hasher::new("clanbft/timeout").chain_u64(round.0).finalize()
    }
}

/// The statement "I will not vote for round `r`'s leader vertex", which
/// no-vote messages sign.
#[derive(Clone, Copy, Debug)]
pub struct NoVote;

impl Statement for NoVote {
    fn digest(round: Round) -> Digest {
        Hasher::new("clanbft/no-vote").chain_u64(round.0).finalize()
    }
}

/// A certificate aggregating `2f+1` signatures over one statement `S` about
/// a round.
#[derive(Clone, Debug)]
pub struct RoundCert<S> {
    /// The round the statement is about.
    pub round: Round,
    /// Aggregated signatures over `S::digest(round)`.
    pub agg: AggregateSignature,
    statement: PhantomData<S>,
}

/// `2f+1` parties timed out waiting for the round's leader vertex.
pub type TimeoutCert = RoundCert<TimedOut>;

/// `2f+1` parties refused to vote for the round's leader vertex.
pub type NoVoteCert = RoundCert<NoVote>;

impl<S: Statement> RoundCert<S> {
    /// Assembles a certificate from `(signer, signature)` pairs.
    pub fn new(round: Round, capacity: usize, pairs: &[(usize, Signature)]) -> Self {
        Self::from_agg(round, AggregateSignature::aggregate(capacity, pairs))
    }

    fn from_agg(round: Round, agg: AggregateSignature) -> Self {
        RoundCert {
            round,
            agg,
            statement: PhantomData,
        }
    }

    /// Verifies the certificate against a quorum threshold.
    pub fn verify(&self, registry: &Registry, quorum: usize) -> bool {
        self.agg
            .certifies(registry, S::digest(self.round).as_bytes(), quorum)
    }
}

fn encode_agg(agg: &AggregateSignature, w: &mut Writer) {
    w.put_u32(agg.signers.capacity() as u32);
    w.put_u32(agg.count() as u32);
    for signer in agg.signers.iter() {
        w.put_u32(signer as u32);
    }
    agg.fold.encode(w);
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
    let mut signers = Bitmap::new(capacity);
    for _ in 0..count {
        let i = r.get_u32()? as usize;
        if i >= capacity {
            return Err(DecodeError::LengthOverflow(i as u64));
        }
        signers.set(i);
    }
    let fold = Signature::decode(r)?;
    Ok(AggregateSignature::from_parts(signers, fold))
}

// Certificates travel inside vertices. `encoded_len` charges the BLS-model
// wire size (64-byte aggregate + signer bitmap + round) per the paper;
// `encode`/`decode` carry the signer indices and the fold, so certificates
// decoded from the WAL or a checkpoint remain verifiable.
impl<S> Encode for RoundCert<S> {
    fn encode(&self, w: &mut Writer) {
        self.round.encode(w);
        encode_agg(&self.agg, w);
    }

    fn encoded_len(&self) -> usize {
        self.round.encoded_len() + self.agg.wire_bytes()
    }
}

impl<S: Statement> Decode for RoundCert<S> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let round = Round::decode(r)?;
        let agg = decode_agg(r)?;
        Ok(Self::from_agg(round, agg))
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
        let d = TimedOut::digest(round);
        let pairs: Vec<_> = (0..3).map(|i| (i, auths[i].sign_digest(&d))).collect();
        let tc = TimeoutCert::new(round, 4, &pairs);
        assert!(tc.verify(&reg, 3));
        assert!(!tc.verify(&reg, 4));
    }

    #[test]
    fn no_vote_cert_rejects_cross_round() {
        let (reg, auths) = setup(4);
        let d = NoVote::digest(Round(1));
        let pairs: Vec<_> = (0..3).map(|i| (i, auths[i].sign_digest(&d))).collect();
        // Certificate claims round 2, but signatures cover round 1.
        let nvc = NoVoteCert::new(Round(2), 4, &pairs);
        assert!(!nvc.verify(&reg, 3));
    }

    #[test]
    fn domains_differ() {
        assert_ne!(TimedOut::digest(Round(4)), NoVote::digest(Round(4)));
        assert_ne!(TimedOut::digest(Round(4)), TimedOut::digest(Round(5)));
    }

    /// A certificate read back from the WAL or a checkpoint still verifies:
    /// the encoding carries the signer indices and the fold.
    #[test]
    fn codec_roundtrip_preserves_signers() {
        let (reg, auths) = setup(7);
        let round = Round(3);
        let d = TimedOut::digest(round);
        let pairs: Vec<_> = [0usize, 2, 5]
            .iter()
            .map(|&i| (i, auths[i].sign_digest(&d)))
            .collect();
        let tc = TimeoutCert::new(round, 7, &pairs);
        let back = TimeoutCert::from_bytes(&tc.to_bytes()).unwrap();
        assert_eq!(back.round, round);
        let signers: Vec<usize> = back.agg.signers.iter().collect();
        assert_eq!(signers, vec![0, 2, 5]);
        assert_eq!(back.agg.fold, tc.agg.fold);
        assert!(back.verify(&reg, 3));
        // Capacity, signer count, three indices and the fold.
        assert_eq!(tc.to_bytes().len(), 8 + 4 + 4 + 3 * 4 + 64);
    }

    #[test]
    fn wire_size_is_bls_model() {
        let (_, auths) = setup(150);
        let round = Round(1);
        let d = TimedOut::digest(round);
        let pairs: Vec<_> = (0..101).map(|i| (i, auths[i].sign_digest(&d))).collect();
        let tc = TimeoutCert::new(round, 150, &pairs);
        assert_eq!(tc.encoded_len(), 8 + 64 + 19);
    }
}
