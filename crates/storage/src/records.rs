//! Typed WAL records.
//!
//! Each record is one tagged [`Encode`]/[`Decode`] value; the WAL frames it
//! with a length prefix and CRC (see [`crate::wal`]). The record set covers
//! exactly the decisions a crashed node must not forget; everything that
//! follows from them is re-derived on replay:
//!
//! * `Proposed` — the node's own broadcast for a round (the [`ProposalEntry`]
//!   a recovered node restores). Written *before* the first byte of the
//!   proposal leaves the node, so a recovered node can re-broadcast the
//!   identical vertex instead of equivocating. The client-tx sequence
//!   cursor is not logged: replay reads it off the block's last batch.
//! * `Voted` / `NoVoted` — the rounds this node signed a leader vote or a
//!   timeout for; recovery suppresses conflicting signatures for those
//!   rounds (vote/no-vote exclusivity survives the crash).
//! * `Accepted` — an RBC-delivered, shape-validated vertex; replay rebuilds
//!   the local DAG from these.
//! * `Committed` — one commit decision: the leader round whose vertex
//!   gathered `2f+1` votes (the votes themselves are not logged). Replay
//!   re-runs the commit rule on the DAG it rebuilt so far, which yields the
//!   same order, and derives the sequence numbers and the epoch-rotation
//!   decisions from it.
//! * `Evidence` — one recorded Byzantine conflict; the next checkpoint
//!   carries it on, so recorded conflicts survive restarts.
//!
//! What a node learns from its peers in a state transfer is not logged: the
//! adoption installs a checkpoint instead.

use crate::checkpoint::ProposalEntry;
use clanbft_types::codec::{Decode, DecodeError, Encode, Reader, Writer};
use clanbft_types::{Evidence, Round, Vertex};

/// One durable consensus state transition.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// Own proposal for `proposal.vertex.round` (persist-before-send).
    Proposed {
        /// The proposed vertex and its block.
        proposal: ProposalEntry,
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
    /// One commit decision: the leader vertex of `leader_round` committed.
    Committed {
        /// The committed leader's round.
        leader_round: Round,
    },
    /// A Byzantine conflict observation.
    Evidence {
        /// The recorded evidence.
        evidence: Evidence,
    },
}

const TAG_PROPOSED: u8 = 1;
const TAG_VOTED: u8 = 2;
const TAG_NO_VOTED: u8 = 3;
const TAG_ACCEPTED: u8 = 4;
const TAG_COMMITTED: u8 = 5;
const TAG_EVIDENCE: u8 = 6;

impl Encode for WalRecord {
    fn encode(&self, w: &mut Writer) {
        match self {
            WalRecord::Proposed { proposal } => {
                w.put_u8(TAG_PROPOSED);
                proposal.encode(w);
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
            WalRecord::Committed { leader_round } => {
                w.put_u8(TAG_COMMITTED);
                leader_round.encode(w);
            }
            WalRecord::Evidence { evidence } => {
                w.put_u8(TAG_EVIDENCE);
                evidence.encode(w);
            }
        }
    }
}

impl Decode for WalRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.get_u8()? {
            TAG_PROPOSED => Ok(WalRecord::Proposed {
                proposal: ProposalEntry::decode(r)?,
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
                leader_round: Round::decode(r)?,
            }),
            TAG_EVIDENCE => Ok(WalRecord::Evidence {
                evidence: Evidence::decode(r)?,
            }),
            t => Err(DecodeError::InvalidTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_crypto::Digest;
    use clanbft_types::{Block, Micros, PartyId, TxBatch, VertexRef};

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
                proposal: ProposalEntry {
                    vertex: sample_vertex(),
                    block: sample_block(),
                },
            },
            WalRecord::Voted { round: Round(4) },
            WalRecord::NoVoted { round: Round(5) },
            WalRecord::Accepted {
                vertex: sample_vertex(),
            },
            WalRecord::Committed {
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
