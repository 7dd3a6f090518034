//! The merged vertex+block payload (paper §5, "efficiently propagating the
//! vertex and the block").
//!
//! Instead of running two RBC instances — standard RBC for the vertex and
//! tribe-assisted RBC for the block — the pair travels as one
//! [`TribePayload`]: clan members receive `(vertex, block)` and echo only
//! after holding both; everyone else receives just the vertex (which embeds
//! the block digest). The RBC digest is the vertex id, so certifying the
//! vertex certifies the block binding too.

use clanbft_crypto::Digest;
use clanbft_rbc::TribePayload;
use clanbft_types::{Block, Encode, PartyId, Round, Vertex};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A vertex as the broadcast layer passes it around: one object however
/// many parties hold it, with its id beside it once any of them has hashed
/// it.
///
/// Every party needs the id of every vertex it accepts, and in one process
/// the parties of a simulated tribe hold the same immutable object: the
/// hash is computed by whoever asks first and read by the rest — once per
/// payload object instead of once per party. The id cannot be forged: the
/// cell is private, starts empty, and its only writer is [`SharedVertex::id`]
/// hashing the vertex it sits beside, which nothing can swap afterwards. A
/// copy that came another way (decoded from bytes, rebuilt by an
/// adversary) is another object with a cell of its own.
#[derive(Clone, Debug)]
pub struct SharedVertex(Arc<Identified>);

#[derive(Debug)]
struct Identified {
    vertex: Arc<Vertex>,
    id: OnceLock<Digest>,
}

impl SharedVertex {
    /// Shares `vertex`, its id not yet computed.
    pub fn new(vertex: Arc<Vertex>) -> SharedVertex {
        SharedVertex(Arc::new(Identified {
            vertex,
            id: OnceLock::new(),
        }))
    }

    /// [`Vertex::id`], hashed by the first caller among all holders.
    pub fn id(&self) -> Digest {
        *self.0.id.get_or_init(|| self.0.vertex.id())
    }

    /// The vertex in the form the DAG stores it.
    pub fn arc(&self) -> &Arc<Vertex> {
        &self.0.vertex
    }
}

impl Deref for SharedVertex {
    type Target = Vertex;

    fn deref(&self) -> &Vertex {
        &self.0.vertex
    }
}

impl From<Vertex> for SharedVertex {
    fn from(vertex: Vertex) -> SharedVertex {
        SharedVertex::new(Arc::new(vertex))
    }
}

/// A vertex and its block, broadcast as a single merged RBC payload.
#[derive(Clone, Debug)]
pub struct MergedPayload {
    /// The tribe-wide vertex.
    pub vertex: SharedVertex,
    /// The clan-only block.
    pub block: Arc<Block>,
}

impl MergedPayload {
    /// Pairs a vertex with its block.
    ///
    /// # Panics
    ///
    /// Panics if the vertex does not reference this block (construction-time
    /// misuse; received payloads go through [`TribePayload::validate`]).
    pub fn new(vertex: Vertex, block: Block) -> MergedPayload {
        assert_eq!(
            vertex.block_digest,
            block.digest(),
            "vertex must bind its block"
        );
        MergedPayload {
            vertex: vertex.into(),
            block: Arc::new(block),
        }
    }
}

impl TribePayload for MergedPayload {
    type Meta = SharedVertex;

    fn rbc_digest(&self) -> Digest {
        self.vertex.id()
    }

    fn meta(&self) -> Self::Meta {
        self.vertex.clone()
    }

    fn meta_digest(meta: &Self::Meta) -> Digest {
        meta.id()
    }

    fn validate(&self) -> bool {
        self.vertex.block_digest == self.block.digest()
            && self.vertex.source == self.block.proposer
            && self.vertex.round == self.block.round
            && self.vertex.block_bytes == self.block.encoded_len() as u64
            && self.vertex.block_tx_count == self.block.tx_count()
    }

    fn names_instance(&self) -> Option<(Round, PartyId)> {
        Some((self.vertex.round, self.vertex.source))
    }

    fn meta_names_instance(meta: &Self::Meta) -> Option<(Round, PartyId)> {
        Some((meta.round, meta.source))
    }

    fn wire_bytes(&self) -> usize {
        self.vertex.encoded_len() + self.block.encoded_len()
    }

    fn meta_wire_bytes(meta: &Self::Meta) -> usize {
        meta.encoded_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_types::{Micros, PartyId, Round, TxBatch};

    fn sample() -> MergedPayload {
        let block = Block::new(
            PartyId(1),
            Round(3),
            vec![TxBatch::synthetic(PartyId(1), 0, 100, 512, Micros(5))],
        );
        let vertex = Vertex {
            round: Round(3),
            source: PartyId(1),
            block_digest: block.digest(),
            block_bytes: block.encoded_len() as u64,
            block_tx_count: block.tx_count(),
            strong_edges: vec![],
            weak_edges: vec![],
            nvc: None,
            tc: None,
        };
        MergedPayload::new(vertex, block)
    }

    #[test]
    fn valid_payload_roundtrips_views() {
        let p = sample();
        assert!(p.validate());
        let meta = p.meta();
        assert_eq!(MergedPayload::meta_digest(&meta), p.rbc_digest());
        // The meta view (vertex) is tiny next to the full payload.
        assert!(MergedPayload::meta_wire_bytes(&meta) < 200);
        assert!(p.wire_bytes() > 100 * 512);
    }

    #[test]
    fn swapped_block_fails_validation() {
        let p = sample();
        let other_block = Block::new(
            PartyId(1),
            Round(3),
            vec![TxBatch::synthetic(PartyId(1), 0, 99, 512, Micros(5))],
        );
        let forged = MergedPayload {
            vertex: p.vertex.clone(),
            block: Arc::new(other_block),
        };
        assert!(!forged.validate(), "block swap must be detected");
    }

    #[test]
    #[should_panic(expected = "bind its block")]
    fn mismatched_construction_panics() {
        let p = sample();
        let bad_block = Block::empty(PartyId(1), Round(3));
        MergedPayload::new((*p.vertex).clone(), bad_block);
    }
}
