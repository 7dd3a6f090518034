//! Typed WAL records.
//!
//! Each record is one tagged [`Encode`]/[`Decode`] value; the WAL frames it
//! with a length prefix and CRC (see [`crate::wal`]). The record set covers
//! exactly the state a crashed node must not forget:
//!
//! * `Proposed` — the node's own broadcast for a round, with the full block
//!   and the post-proposal client-tx sequence cursor. Written *before* the
//!   first byte of the proposal leaves the node, so a recovered node can
//!   re-broadcast the identical vertex instead of equivocating.
//! * `Voted` / `NoVoted` — the rounds this node signed a leader vote or a
//!   timeout for; recovery suppresses conflicting signatures for those
//!   rounds (vote/no-vote exclusivity survives the crash).
//! * `Accepted` — an RBC-delivered, shape-validated vertex; replay rebuilds
//!   the local DAG from these.
//! * `Committed` — one commit-sequence advance; replay restores the commit
//!   frontier so sequence numbers continue gap-free and nothing is re-acked.
//! * `Evidence` — recorded Byzantine conflicts survive restarts.
//! * `EpochDecided` — a deterministic clan-rotation decision; replay
//!   re-installs the epoch topology without re-running the vote.

use clanbft_crypto::Digest;
use clanbft_types::codec::{Decode, DecodeError, Encode, Reader, Writer};
use clanbft_types::{Block, Evidence, PartyId, Round, Vertex, VertexRef};

/// One durable consensus state transition.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// Own proposal for `vertex.round` (persist-before-send).
    Proposed {
        /// The proposed vertex.
        vertex: Vertex,
        /// The block the vertex's digest binds.
        block: Block,
        /// Client-tx sequence cursor *after* this proposal's batches.
        next_tx_seq: u64,
    },
    /// A leader vote was signed for `round`.
    Voted {
        /// The voted round.
        round: Round,
    },
    /// A timeout/no-vote was signed for `round`.
    NoVoted {
        /// The timed-out round.
        round: Round,
    },
    /// An RBC-delivered vertex was accepted into the DAG.
    Accepted {
        /// The accepted vertex.
        vertex: Vertex,
    },
    /// One vertex entered the total order.
    Committed {
        /// Its global sequence number.
        sequence: u64,
        /// The committed vertex.
        vertex: VertexRef,
        /// Digest of its block.
        block_digest: Digest,
        /// Transactions in the block.
        block_tx_count: u64,
        /// The leader round whose commit swept this vertex in.
        leader_round: Round,
    },
    /// A Byzantine conflict observation.
    Evidence {
        /// The recorded evidence.
        evidence: Evidence,
    },
    /// A deterministic epoch-rotation decision (new clan layout effective
    /// from `from_round`).
    EpochDecided {
        /// The decided epoch number.
        epoch: u64,
        /// First round governed by the new layout.
        from_round: Round,
        /// Clan member lists of the new layout.
        clans: Vec<Vec<u32>>,
    },
}

const TAG_PROPOSED: u8 = 1;
const TAG_VOTED: u8 = 2;
const TAG_NO_VOTED: u8 = 3;
const TAG_ACCEPTED: u8 = 4;
const TAG_COMMITTED: u8 = 5;
const TAG_EVIDENCE: u8 = 6;
const TAG_EPOCH: u8 = 7;

const EV_EQUIVOCATING: u8 = 1;
const EV_DOUBLE_VOTE: u8 = 2;
const EV_VOTE_TIMEOUT: u8 = 3;
const EV_MISBOUND: u8 = 4;

fn encode_evidence(e: &Evidence, w: &mut Writer) {
    match e {
        Evidence::EquivocatingSource {
            round,
            source,
            first,
            second,
        } => {
            w.put_u8(EV_EQUIVOCATING);
            round.encode(w);
            source.encode(w);
            first.encode(w);
            second.encode(w);
        }
        Evidence::DoubleVote {
            round,
            voter,
            first,
            second,
        } => {
            w.put_u8(EV_DOUBLE_VOTE);
            round.encode(w);
            voter.encode(w);
            first.encode(w);
            second.encode(w);
        }
        Evidence::VoteTimeoutConflict { round, party } => {
            w.put_u8(EV_VOTE_TIMEOUT);
            round.encode(w);
            party.encode(w);
        }
        Evidence::MisboundPayload {
            round,
            source,
            named_round,
            named_source,
        } => {
            w.put_u8(EV_MISBOUND);
            round.encode(w);
            source.encode(w);
            named_round.encode(w);
            named_source.encode(w);
        }
    }
}

fn decode_evidence(r: &mut Reader<'_>) -> Result<Evidence, DecodeError> {
    match r.get_u8()? {
        EV_EQUIVOCATING => Ok(Evidence::EquivocatingSource {
            round: Round::decode(r)?,
            source: PartyId::decode(r)?,
            first: Digest::decode(r)?,
            second: Digest::decode(r)?,
        }),
        EV_DOUBLE_VOTE => Ok(Evidence::DoubleVote {
            round: Round::decode(r)?,
            voter: PartyId::decode(r)?,
            first: Digest::decode(r)?,
            second: Digest::decode(r)?,
        }),
        EV_VOTE_TIMEOUT => Ok(Evidence::VoteTimeoutConflict {
            round: Round::decode(r)?,
            party: PartyId::decode(r)?,
        }),
        EV_MISBOUND => Ok(Evidence::MisboundPayload {
            round: Round::decode(r)?,
            source: PartyId::decode(r)?,
            named_round: Round::decode(r)?,
            named_source: PartyId::decode(r)?,
        }),
        t => Err(DecodeError::InvalidTag(t)),
    }
}

impl Encode for WalRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            WalRecord::Proposed {
                vertex,
                block,
                next_tx_seq,
            } => {
                w.put_u8(TAG_PROPOSED);
                vertex.encode(w);
                block.encode(w);
                w.put_u64(*next_tx_seq);
            }
            WalRecord::Voted { round } => {
                w.put_u8(TAG_VOTED);
                round.encode(w);
            }
            WalRecord::NoVoted { round } => {
                w.put_u8(TAG_NO_VOTED);
                round.encode(w);
            }
            WalRecord::Accepted { vertex } => {
                w.put_u8(TAG_ACCEPTED);
                vertex.encode(w);
            }
            WalRecord::Committed {
                sequence,
                vertex,
                block_digest,
                block_tx_count,
                leader_round,
            } => {
                w.put_u8(TAG_COMMITTED);
                w.put_u64(*sequence);
                vertex.encode(w);
                block_digest.encode(w);
                w.put_u64(*block_tx_count);
                leader_round.encode(w);
            }
            WalRecord::Evidence { evidence } => {
                w.put_u8(TAG_EVIDENCE);
                encode_evidence(evidence, w);
            }
            WalRecord::EpochDecided {
                epoch,
                from_round,
                clans,
            } => {
                w.put_u8(TAG_EPOCH);
                w.put_u64(*epoch);
                from_round.encode(w);
                clans.encode(w);
            }
        }
    }
}

impl Decode for WalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            TAG_PROPOSED => Ok(WalRecord::Proposed {
                vertex: Vertex::decode(r)?,
                block: Block::decode(r)?,
                next_tx_seq: r.get_u64()?,
            }),
            TAG_VOTED => Ok(WalRecord::Voted {
                round: Round::decode(r)?,
            }),
            TAG_NO_VOTED => Ok(WalRecord::NoVoted {
                round: Round::decode(r)?,
            }),
            TAG_ACCEPTED => Ok(WalRecord::Accepted {
                vertex: Vertex::decode(r)?,
            }),
            TAG_COMMITTED => Ok(WalRecord::Committed {
                sequence: r.get_u64()?,
                vertex: VertexRef::decode(r)?,
                block_digest: Digest::decode(r)?,
                block_tx_count: r.get_u64()?,
                leader_round: Round::decode(r)?,
            }),
            TAG_EVIDENCE => Ok(WalRecord::Evidence {
                evidence: decode_evidence(r)?,
            }),
            TAG_EPOCH => Ok(WalRecord::EpochDecided {
                epoch: r.get_u64()?,
                from_round: Round::decode(r)?,
                clans: Vec::<Vec<u32>>::decode(r)?,
            }),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_types::Micros;
    use clanbft_types::TxBatch;

    fn sample_vertex() -> Vertex {
        let block = sample_block();
        Vertex {
            round: Round(3),
            source: PartyId(1),
            block_digest: block.digest(),
            block_bytes: block.encoded_len() as u64,
            block_tx_count: block.tx_count(),
            strong_edges: vec![VertexRef {
                round: Round(2),
                source: PartyId(0),
            }],
            weak_edges: Vec::new(),
            nvc: None,
            tc: None,
        }
    }

    fn sample_block() -> Block {
        Block::new(
            PartyId(1),
            Round(3),
            vec![TxBatch::synthetic(PartyId(1), 7, 5, 64, Micros(11))],
        )
    }

    #[test]
    fn all_variants_roundtrip() {
        let records = vec![
            WalRecord::Proposed {
                vertex: sample_vertex(),
                block: sample_block(),
                next_tx_seq: 12,
            },
            WalRecord::Voted { round: Round(4) },
            WalRecord::NoVoted { round: Round(5) },
            WalRecord::Accepted {
                vertex: sample_vertex(),
            },
            WalRecord::Committed {
                sequence: 9,
                vertex: VertexRef {
                    round: Round(3),
                    source: PartyId(1),
                },
                block_digest: Digest([7; 32]),
                block_tx_count: 5,
                leader_round: Round(4),
            },
            WalRecord::Evidence {
                evidence: Evidence::DoubleVote {
                    round: Round(2),
                    voter: PartyId(3),
                    first: Digest([1; 32]),
                    second: Digest([2; 32]),
                },
            },
            WalRecord::Evidence {
                evidence: Evidence::MisboundPayload {
                    round: Round(2),
                    source: PartyId(3),
                    named_round: Round(u64::MAX),
                    named_source: PartyId(1),
                },
            },
            WalRecord::EpochDecided {
                epoch: 1,
                from_round: Round(16),
                clans: vec![vec![0, 2, 5]],
            },
        ];
        for rec in records {
            let bytes = rec.to_bytes();
            let back = WalRecord::from_bytes(&bytes).expect("decode");
            // `Vertex` has no `PartialEq`; the deterministic encoding is the
            // equality we actually care about.
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert!(matches!(
            WalRecord::from_bytes(&[99]),
            Err(DecodeError::InvalidTag(99))
        ));
    }
}
