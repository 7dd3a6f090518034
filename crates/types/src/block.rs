//! The block of transactions disseminated to a clan (paper Fig. 4).

use crate::codec::{Decode, DecodeError, Encode, Reader, Writer};
use crate::ids::{PartyId, Round};
use crate::transaction::TxBatch;
use clanbft_crypto::{Digest, Hasher};

/// A block of transactions.
///
/// Per the paper's modified data structures (§5, Fig. 4), the block is
/// separated from the vertex: the vertex carries only `H(block)` and is
/// propagated to the whole tribe, while the block itself goes to the
/// designated clan via tribe-assisted RBC.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    /// The proposing party.
    pub proposer: PartyId,
    /// The DAG round this block belongs to.
    pub round: Round,
    /// The transactions, as creation-time batches.
    pub batches: Vec<TxBatch>,
}

impl Block {
    /// Builds a block.
    pub fn new(proposer: PartyId, round: Round, batches: Vec<TxBatch>) -> Block {
        Block {
            proposer,
            round,
            batches,
        }
    }

    /// An empty block (a proposer with nothing to say still proposes, to
    /// keep the DAG advancing).
    pub fn empty(proposer: PartyId, round: Round) -> Block {
        Block {
            proposer,
            round,
            batches: Vec::new(),
        }
    }

    /// Total number of transactions.
    pub fn tx_count(&self) -> u64 {
        self.batches.iter().map(|b| b.count as u64).sum()
    }

    /// Total transaction payload bytes on the wire.
    pub fn tx_wire_bytes(&self) -> usize {
        self.batches.iter().map(TxBatch::tx_wire_bytes).sum()
    }

    /// Content digest binding proposer, round and every batch.
    ///
    /// For synthetic batches the digest binds the batch *metadata* (creator,
    /// sequence range, sizes, timestamp); for real batches it also binds the
    /// payload bytes.
    pub fn digest(&self) -> Digest {
        let _prof = clanbft_profiler::scope("codec.block_digest");
        let mut h = Hasher::new("clanbft/block");
        h.update_u64(self.proposer.0 as u64);
        h.update_u64(self.round.0);
        h.update_u64(self.batches.len() as u64);
        for b in &self.batches {
            h.update_u64(b.creator.0 as u64);
            h.update_u64(b.first_seq);
            h.update_u64(b.count as u64);
            h.update_u64(b.tx_bytes as u64);
            h.update_u64(b.created_at.0);
            h.update(&b.payload);
        }
        h.finalize()
    }
}

impl Encode for Block {
    fn encode(&self, w: &mut Writer) {
        let _prof = clanbft_profiler::scope("codec.block_encode");
        self.proposer.encode(w);
        self.round.encode(w);
        self.batches.encode(w);
    }

    fn encoded_len(&self) -> usize {
        self.proposer.encoded_len() + self.round.encoded_len() + self.batches.encoded_len()
    }
}

impl Decode for Block {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let _prof = clanbft_profiler::scope("codec.block_decode");
        Ok(Block {
            proposer: PartyId::decode(r)?,
            round: Round::decode(r)?,
            batches: Vec::<TxBatch>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Micros;

    fn sample_block() -> Block {
        Block::new(
            PartyId(2),
            Round(7),
            vec![
                TxBatch::synthetic(PartyId(2), 0, 1000, 512, Micros(10)),
                TxBatch::synthetic(PartyId(2), 1000, 500, 512, Micros(20)),
            ],
        )
    }

    #[test]
    fn counting() {
        let b = sample_block();
        assert_eq!(b.tx_count(), 1500);
        assert_eq!(b.tx_wire_bytes(), 1500 * 512);
    }

    #[test]
    fn digest_is_content_sensitive() {
        let b = sample_block();
        let mut b2 = b.clone();
        b2.batches[0].count += 1;
        assert_ne!(b.digest(), b2.digest());
        let mut b3 = b.clone();
        b3.round = Round(8);
        assert_ne!(b.digest(), b3.digest());
        assert_eq!(b.digest(), sample_block().digest());
    }

    #[test]
    fn digest_binds_real_payload() {
        let mk = |byte: u8| {
            Block::new(
                PartyId(1),
                Round(1),
                vec![TxBatch::with_payload(
                    PartyId(1),
                    0,
                    1,
                    4,
                    Micros(0),
                    vec![byte; 4],
                )],
            )
        };
        assert_ne!(mk(1).digest(), mk(2).digest());
    }

    #[test]
    fn codec_roundtrip() {
        let b = sample_block();
        let back = Block::from_bytes(&b.to_bytes()).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn wire_size_dominated_by_payload() {
        let b = sample_block();
        // The paper's ℓ >> κn premise: a 1500-tx block is ~768 kB, headers
        // are noise.
        assert!(b.encoded_len() > 1500 * 512);
        assert!(b.encoded_len() < 1500 * 512 + 200);
    }
}
