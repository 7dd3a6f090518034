//! Consensus-level messages: the RBC envelope plus leader votes and
//! timeout/no-vote announcements.

use crate::payload::MergedPayload;
use clanbft_crypto::{Digest, Hasher, Signature};
use clanbft_rbc::RbcPacket;
use clanbft_simnet::protocol::Message;
use clanbft_types::codec::Encode;
use clanbft_types::{Round, Vertex, VertexRef};
use std::sync::Arc;

/// The statement a leader vote signs.
pub fn vote_digest(round: Round, vertex_id: &Digest) -> Digest {
    Hasher::new("clanbft/leader-vote")
        .chain_u64(round.0)
        .chain(vertex_id.as_bytes())
        .finalize()
}

// The simulator stores one of these per burst in flight and handlers match
// on it per delivery; the two-signature `Timeout` variant sets the size. A
// new inline field in any variant is a conscious re-pin, not a silent cost.
const _: () = assert!(
    std::mem::size_of::<ConsensusMsg>() == 144,
    "ConsensusMsg is pinned at 144 bytes"
);

/// All messages exchanged by [`crate::node::SailfishNode`].
#[derive(Clone, Debug)]
pub enum ConsensusMsg {
    /// Broadcast-layer traffic (vertices, blocks, echoes, certificates,
    /// pulls).
    Rbc(RbcPacket<MergedPayload>),
    /// Leader vote: sent upon RBC-delivering the round leader's vertex
    /// (Sailfish's extra δ that yields the 3δ commit).
    Vote {
        /// Voted round.
        round: Round,
        /// Id of the leader vertex voted for.
        vertex_id: Digest,
        /// Signature over [`vote_digest`].
        sig: Signature,
    },
    /// Timeout announcement: the sender waited out round `round` without
    /// the leader vertex. Carries signatures for both the timeout statement
    /// (aggregated into the TC non-leaders attach) and the no-vote
    /// statement (aggregated into the NVC the next leader attaches).
    Timeout {
        /// The round timed out on.
        round: Round,
        /// Signature over [`clanbft_types::certs::timeout_digest`].
        timeout_sig: Signature,
        /// Signature over [`clanbft_types::certs::no_vote_digest`].
        no_vote_sig: Signature,
    },
    /// A restarted (or badly lagging) party asks a peer for the committed
    /// DAG suffix from `from_round` on. Peers answer with a
    /// [`ConsensusMsg::StateSnapshot`] header followed by bounded
    /// [`ConsensusMsg::StateChunk`]s; at most one answer per `(peer,
    /// from_round)` is served (the pull rate-limit pattern).
    StateRequest {
        /// First round the requester is missing.
        from_round: Round,
        /// The requester's commit-sequence frontier: responders ship the
        /// committed-order suffix from this sequence on, so the requester's
        /// total order stays gap-free even when it slept through commits.
        next_seq: u64,
    },
    /// State-transfer header: what the responder is about to ship.
    StateSnapshot {
        /// Echo of the request's `from_round` (pairs header with chunks).
        from_round: Round,
        /// The responder's current consensus round.
        current_round: Round,
        /// The responder's last committed leader round.
        last_committed: Round,
        /// How many [`ConsensusMsg::StateChunk`]s follow.
        chunks: u32,
    },
    /// One bounded slice of the responder's live DAG vertices. The
    /// requester accepts a vertex only once `f+1` responders shipped an
    /// identical copy (vertex ids match), so no single Byzantine responder
    /// can forge history.
    StateChunk {
        /// Echo of the request's `from_round`.
        from_round: Round,
        /// Chunk index within this responder's snapshot.
        seq: u32,
        /// Whether this is the responder's final chunk.
        last: bool,
        /// The vertices carried (shared, so re-serving clones pointers).
        vertices: Vec<Arc<Vertex>>,
        /// The responder's committed-order suffix from the requester's
        /// declared frontier — adopted under the same `f+1` agreement rule.
        committed: Vec<CommittedRec>,
    },
}

/// One committed-order entry shipped during state transfer. A requester
/// adopts an entry only once `f+1` responders sent an identical copy, then
/// applies entries in sequence order (stopping at the first gap), so its
/// total order extends the tribe's without holes or divergence.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CommittedRec {
    /// Position in the total order.
    pub sequence: u64,
    /// The ordered vertex.
    pub vertex: VertexRef,
    /// Digest of its block.
    pub block_digest: Digest,
    /// Declared block size on the wire.
    pub block_bytes: u64,
    /// Transactions in the block.
    pub block_tx_count: u64,
    /// The leader round whose commit swept this vertex in.
    pub leader_round: Round,
}

/// Wire estimate for one [`CommittedRec`]: sequence + (round, source) +
/// digest + bytes + count + leader round.
const COMMITTED_REC_BYTES: usize = 8 + 12 + 32 + 8 + 8 + 8;

impl Message for ConsensusMsg {
    fn wire_bytes(&self) -> usize {
        match self {
            ConsensusMsg::Rbc(pkt) => pkt.wire_bytes(),
            // round + vertex id + signature (BLS-sized in the paper's
            // implementation; 64 bytes here).
            ConsensusMsg::Vote { .. } => 8 + 32 + 64,
            ConsensusMsg::Timeout { .. } => 8 + 64 + 64,
            ConsensusMsg::StateRequest { .. } => 8 + 8,
            ConsensusMsg::StateSnapshot { .. } => 8 + 8 + 8 + 4,
            ConsensusMsg::StateChunk {
                vertices,
                committed,
                ..
            } => {
                8 + 4
                    + 1
                    + vertices.iter().map(|v| v.encoded_len()).sum::<usize>()
                    + committed.len() * COMMITTED_REC_BYTES
            }
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            ConsensusMsg::Rbc(pkt) => pkt.kind(),
            ConsensusMsg::Vote { .. } => "vote",
            ConsensusMsg::Timeout { .. } => "timeout",
            ConsensusMsg::StateRequest { .. } => "state.request",
            ConsensusMsg::StateSnapshot { .. } => "state.snapshot",
            ConsensusMsg::StateChunk { .. } => "state.chunk",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vote_digest_binds_round_and_vertex() {
        let v1 = Digest::of(b"vertex-1");
        let v2 = Digest::of(b"vertex-2");
        assert_ne!(vote_digest(Round(1), &v1), vote_digest(Round(2), &v1));
        assert_ne!(vote_digest(Round(1), &v1), vote_digest(Round(1), &v2));
        assert_eq!(vote_digest(Round(1), &v1), vote_digest(Round(1), &v1));
    }

    #[test]
    fn control_messages_are_small() {
        let sig = Signature([0u8; 64]);
        let vote = ConsensusMsg::Vote {
            round: Round(1),
            vertex_id: Digest::ZERO,
            sig,
        };
        let timeout = ConsensusMsg::Timeout {
            round: Round(1),
            timeout_sig: sig,
            no_vote_sig: sig,
        };
        assert!(vote.wire_bytes() < 128);
        assert!(timeout.wire_bytes() < 160);
    }
}
