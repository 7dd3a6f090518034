//! Periodic DAG / commit-frontier checkpoints.
//!
//! A checkpoint is a single atomically-installed snapshot of the node's
//! durable state: the commit frontier (so sequence numbers continue
//! gap-free), the signing ledger (voted / no-voted rounds), the whole DAG
//! from the garbage-collection horizon on (live and pending vertices, and
//! every ordered mark, with or without its vertex), the node's own last
//! proposal (equivocation guard), the epoch-rotation decisions and the
//! retained misbehaviour evidence. Replay re-runs the commit rule over this
//! DAG, so it holds exactly what the node's own DAG held. Once a checkpoint
//! is durable the WAL is rotated (truncated to empty) — log growth is
//! bounded by the checkpoint cadence, not the run length. It is also how
//! state adopted from peers becomes durable: the adoption installs one.
//!
//! Installation is crash-atomic: the snapshot is written to a temporary
//! file, fsync'd, then `rename(2)`d over the live name. A crash at any
//! point leaves either the old or the new checkpoint fully intact, and the
//! snapshot's CRC frame rejects a torn rename target on the next open.

use clanbft_types::codec::{Decode, DecodeError, Encode, Reader, Writer};
use clanbft_types::{Block, Evidence, Round, Vertex, VertexRef};

/// Version tag; bumped if the snapshot layout ever changes. A storage
/// directory is only ever read by the build that created it, so an older
/// layout is refused like any other.
const CHECKPOINT_VERSION: u32 = 3;

/// The node's own last proposal, preserved verbatim so a recovered node
/// re-broadcasts the identical vertex instead of equivocating.
#[derive(Clone, Debug)]
pub struct ProposalEntry {
    /// The proposed vertex.
    pub vertex: Vertex,
    /// Its block.
    pub block: Block,
}

impl Encode for ProposalEntry {
    fn encode(&self, w: &mut Writer) {
        self.vertex.encode(w);
        self.block.encode(w);
    }
}

impl Decode for ProposalEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ProposalEntry {
            vertex: Vertex::decode(r)?,
            block: Block::decode(r)?,
        })
    }
}

/// One decided epoch rotation: a checkpoint carries every decision taken
/// before it, because the commits they were derived from are no longer in
/// the WAL.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EpochEntry {
    /// The epoch number.
    pub epoch: u64,
    /// First round governed by this layout.
    pub from_round: Round,
    /// Clan member lists.
    pub clans: Vec<Vec<u32>>,
}

impl Encode for EpochEntry {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.epoch);
        self.from_round.encode(w);
        self.clans.encode(w);
    }
}

impl Decode for EpochEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(EpochEntry {
            epoch: r.get_u64()?,
            from_round: Round::decode(r)?,
            clans: Vec::<Vec<u32>>::decode(r)?,
        })
    }
}

/// A full durable snapshot of one node's recovery-relevant state.
#[derive(Clone, Debug, Default)]
pub struct Checkpoint {
    /// The round the node was operating in.
    pub current_round: Round,
    /// Highest committed leader round.
    pub last_committed: Option<Round>,
    /// Next commit sequence number to assign.
    pub commit_seq: u64,
    /// Next client-tx sequence cursor (exactly-once batch numbering).
    pub next_tx_seq: u64,
    /// True iff the node had stopped proposing (`max_round` reached).
    pub stopped_proposing: bool,
    /// Rounds with a signed leader vote.
    pub voted: Vec<Round>,
    /// Rounds with a signed timeout/no-vote.
    pub no_voted: Vec<Round>,
    /// The node's own last proposal.
    pub last_proposal: Option<ProposalEntry>,
    /// The DAG's garbage-collection horizon: rounds below it were pruned.
    pub horizon: Round,
    /// Every DAG vertex from `horizon` on, live or pending, in
    /// `(round, source)` order (parents before children).
    pub vertices: Vec<Vertex>,
    /// Every vertex from `horizon` on already in the total order (never
    /// re-emitted), whether or not the vertex itself is held.
    pub ordered: Vec<VertexRef>,
    /// Per party: `round.0 + 1` of its newest committed vertex (0 = none);
    /// the liveness table the epoch-rotation rule reads.
    pub committed_round_by: Vec<u64>,
    /// Every epoch-rotation decision taken so far, ascending.
    pub epochs: Vec<EpochEntry>,
    /// The misbehaviour evidence the node retains, oldest first.
    pub evidence: Vec<Evidence>,
}

impl Encode for Checkpoint {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(CHECKPOINT_VERSION);
        self.current_round.encode(w);
        self.last_committed.encode(w);
        w.put_u64(self.commit_seq);
        w.put_u64(self.next_tx_seq);
        w.put_u8(self.stopped_proposing as u8);
        self.voted.encode(w);
        self.no_voted.encode(w);
        self.last_proposal.encode(w);
        self.horizon.encode(w);
        self.vertices.encode(w);
        self.ordered.encode(w);
        self.committed_round_by.encode(w);
        self.epochs.encode(w);
        self.evidence.encode(w);
    }
}

impl Decode for Checkpoint {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let version = r.get_u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(DecodeError::Invalid("unknown checkpoint version"));
        }
        Ok(Checkpoint {
            current_round: Round::decode(r)?,
            last_committed: Option::<Round>::decode(r)?,
            commit_seq: r.get_u64()?,
            next_tx_seq: r.get_u64()?,
            stopped_proposing: bool::decode(r)?,
            voted: Vec::<Round>::decode(r)?,
            no_voted: Vec::<Round>::decode(r)?,
            last_proposal: Option::<ProposalEntry>::decode(r)?,
            horizon: Round::decode(r)?,
            vertices: Vec::<Vertex>::decode(r)?,
            ordered: Vec::<VertexRef>::decode(r)?,
            committed_round_by: Vec::<u64>::decode(r)?,
            epochs: Vec::<EpochEntry>::decode(r)?,
            evidence: Vec::<Evidence>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_including_defaults() {
        let cp = Checkpoint {
            current_round: Round(9),
            last_committed: Some(Round(7)),
            commit_seq: 41,
            next_tx_seq: 1200,
            stopped_proposing: false,
            voted: vec![Round(8), Round(9)],
            no_voted: vec![Round(6)],
            last_proposal: None,
            horizon: Round(3),
            vertices: Vec::new(),
            ordered: vec![VertexRef {
                round: Round(7),
                source: clanbft_types::PartyId(2),
            }],
            committed_round_by: vec![8, 0, 7],
            epochs: vec![EpochEntry {
                epoch: 1,
                from_round: Round(16),
                clans: vec![vec![1, 2, 3]],
            }],
            evidence: vec![Evidence::VoteTimeoutConflict {
                round: Round(6),
                party: clanbft_types::PartyId(3),
            }],
        };
        let back = Checkpoint::from_bytes(&cp.to_bytes()).expect("decode");
        assert_eq!(back.to_bytes(), cp.to_bytes());
        assert_eq!(back.commit_seq, 41);
        assert_eq!(back.epochs, cp.epochs);
        assert_eq!(back.evidence, cp.evidence);

        let empty = Checkpoint::default();
        let back = Checkpoint::from_bytes(&empty.to_bytes()).expect("decode");
        assert_eq!(back.to_bytes(), empty.to_bytes());
    }

    #[test]
    fn version_mismatch_rejected() {
        for version in [1, 2, 99] {
            let mut bytes = Checkpoint::default().to_bytes();
            bytes[0] = version;
            assert!(Checkpoint::from_bytes(&bytes).is_err(), "version {version}");
        }
    }
}
