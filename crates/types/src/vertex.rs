//! The DAG vertex (paper Fig. 4, adapted from Sailfish).
//!
//! A vertex is the tribe-wide metadata object: it carries the *digest* of
//! its block (the block itself travels only to the clan), strong edges to
//! `≥ 2f+1` vertices of the previous round, weak edges to older orphan
//! vertices, and — when the proposer is the round leader arriving without a
//! strong edge to the previous leader vertex — a no-vote or timeout
//! certificate justifying the omission.

use crate::certs::{NoVoteCert, TimeoutCert};
use crate::codec::{Decode, DecodeError, Encode, Reader, Writer};
use crate::ids::{PartyId, PartySet, Round, TribeParams};
use clanbft_crypto::{Digest, Hasher};

/// A reference to a vertex by `(round, source)`.
///
/// RBC guarantees non-equivocation, so each `(round, source)` pair names at
/// most one delivered vertex; references therefore do not need to carry the
/// vertex digest.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VertexRef {
    /// Round of the referenced vertex.
    pub round: Round,
    /// Proposer of the referenced vertex.
    pub source: PartyId,
}

impl Encode for VertexRef {
    fn encode(&self, w: &mut Writer) {
        self.round.encode(w);
        self.source.encode(w);
    }
    fn encoded_len(&self) -> usize {
        12
    }
}

impl Decode for VertexRef {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(VertexRef {
            round: Round::decode(r)?,
            source: PartyId::decode(r)?,
        })
    }
}

/// Content-addressed vertex identifier (digest of the encoded header).
pub type VertexId = Digest;

/// A DAG vertex.
#[derive(Clone, Debug)]
pub struct Vertex {
    /// The round of this vertex in the DAG.
    pub round: Round,
    /// The party that broadcast this vertex.
    pub source: PartyId,
    /// Digest of the corresponding block of transactions.
    pub block_digest: Digest,
    /// Declared wire size of the corresponding block in bytes. Carried so
    /// parties outside the clan can account throughput without the block.
    pub block_bytes: u64,
    /// Number of transactions in the corresponding block.
    pub block_tx_count: u64,
    /// References to `≥ 2f+1` vertices of round `round − 1`.
    pub strong_edges: Vec<VertexRef>,
    /// References to older vertices not yet reachable from this one.
    pub weak_edges: Vec<VertexRef>,
    /// No-vote certificate for `round − 1`, if any. Boxed, like `tc`: few
    /// vertices carry one, and inline the pair would be most of a vertex.
    pub nvc: Option<Box<NoVoteCert>>,
    /// Timeout certificate for `round − 1`, if any.
    pub tc: Option<Box<TimeoutCert>>,
}

impl Vertex {
    /// Builds a genesis-round vertex (no edges).
    pub fn genesis(source: PartyId, block_digest: Digest) -> Vertex {
        Vertex {
            round: Round::GENESIS,
            source,
            block_digest,
            block_bytes: 0,
            block_tx_count: 0,
            strong_edges: Vec::new(),
            weak_edges: Vec::new(),
            nvc: None,
            tc: None,
        }
    }

    /// The `(round, source)` reference naming this vertex.
    pub fn reference(&self) -> VertexRef {
        VertexRef {
            round: self.round,
            source: self.source,
        }
    }

    /// Content digest of the vertex header (certificates included via their
    /// rounds and signer sets, not their raw signatures).
    pub fn id(&self) -> VertexId {
        let _prof = clanbft_profiler::scope("codec.vertex_id");
        let mut h = Hasher::new("clanbft/vertex");
        h.update_u64(self.round.0);
        h.update_u64(self.source.0 as u64);
        h.update(self.block_digest.as_bytes());
        h.update_u64(self.block_bytes);
        h.update_u64(self.block_tx_count);
        h.update_u64(self.strong_edges.len() as u64);
        for e in &self.strong_edges {
            h.update_u64(e.round.0);
            h.update_u64(e.source.0 as u64);
        }
        h.update_u64(self.weak_edges.len() as u64);
        for e in &self.weak_edges {
            h.update_u64(e.round.0);
            h.update_u64(e.source.0 as u64);
        }
        h.update_u64(self.nvc.as_ref().map_or(u64::MAX, |c| c.round.0));
        h.update_u64(self.tc.as_ref().map_or(u64::MAX, |c| c.round.0));
        h.finalize()
    }

    /// True iff this vertex has a strong edge to `target`.
    pub fn has_strong_edge_to(&self, target: &VertexRef) -> bool {
        self.strong_edges.contains(target)
    }

    /// Validates structural invariants against tribe parameters.
    ///
    /// Genesis vertices carry no edges; later vertices need at least
    /// `2f+1` strong edges, all pointing at the immediately preceding
    /// round, and weak edges — at most `f` of them, no two alike — must
    /// point strictly further back. The source and every edge must name a
    /// party of the tribe: that is what lets the layers below address a
    /// vertex and its parents by index.
    pub fn validate_shape(&self, tribe: TribeParams) -> Result<(), VertexShapeError> {
        let outside = |r: &VertexRef| r.source.idx() >= tribe.n();
        if outside(&self.reference()) {
            return Err(VertexShapeError::EdgeOutsideTribe {
                edge: self.reference(),
            });
        }
        if self.round == Round::GENESIS {
            if !self.strong_edges.is_empty() || !self.weak_edges.is_empty() {
                return Err(VertexShapeError::GenesisWithEdges);
            }
            return Ok(());
        }
        if self.strong_edges.len() < tribe.quorum() {
            return Err(VertexShapeError::TooFewStrongEdges {
                got: self.strong_edges.len(),
                need: tribe.quorum(),
            });
        }
        let prev = self
            .round
            .prev()
            .expect("non-genesis round has a predecessor");
        let mut seen = PartySet::EMPTY;
        for e in &self.strong_edges {
            if e.round != prev {
                return Err(VertexShapeError::StrongEdgeWrongRound { edge: *e });
            }
            if outside(e) {
                return Err(VertexShapeError::EdgeOutsideTribe { edge: *e });
            }
            if !seen.insert(e.source) {
                return Err(VertexShapeError::DuplicateStrongEdge { source: e.source });
            }
        }
        if self.weak_edges.len() > tribe.f() {
            return Err(VertexShapeError::TooManyWeakEdges {
                got: self.weak_edges.len(),
                cap: tribe.f(),
            });
        }
        for (i, e) in self.weak_edges.iter().enumerate() {
            if e.round >= prev {
                return Err(VertexShapeError::WeakEdgeTooRecent { edge: *e });
            }
            if outside(e) {
                return Err(VertexShapeError::EdgeOutsideTribe { edge: *e });
            }
            if self.weak_edges[..i].contains(e) {
                return Err(VertexShapeError::DuplicateWeakEdge { edge: *e });
            }
        }
        Ok(())
    }
}

/// Structural validation failures for a vertex.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VertexShapeError {
    /// A genesis vertex carried edges.
    GenesisWithEdges,
    /// Fewer than `2f+1` strong edges.
    TooFewStrongEdges {
        /// Strong edges present.
        got: usize,
        /// Required quorum.
        need: usize,
    },
    /// A strong edge does not point at round `r − 1`.
    StrongEdgeWrongRound {
        /// The offending edge.
        edge: VertexRef,
    },
    /// Two strong edges name the same source.
    DuplicateStrongEdge {
        /// The duplicated source.
        source: PartyId,
    },
    /// A weak edge points at round `r − 1` or later.
    WeakEdgeTooRecent {
        /// The offending edge.
        edge: VertexRef,
    },
    /// More than `f` weak edges.
    TooManyWeakEdges {
        /// Weak edges present.
        got: usize,
        /// The cap, `f`.
        cap: usize,
    },
    /// Two weak edges name the same vertex.
    DuplicateWeakEdge {
        /// The repeated edge.
        edge: VertexRef,
    },
    /// An edge (or the vertex itself) names a source that is not a party of
    /// the tribe.
    EdgeOutsideTribe {
        /// The offending reference.
        edge: VertexRef,
    },
}

impl std::fmt::Display for VertexShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VertexShapeError::GenesisWithEdges => write!(f, "genesis vertex carries edges"),
            VertexShapeError::TooFewStrongEdges { got, need } => {
                write!(f, "only {got} strong edges, need {need}")
            }
            VertexShapeError::StrongEdgeWrongRound { edge } => {
                write!(
                    f,
                    "strong edge to {} {} not in previous round",
                    edge.round, edge.source
                )
            }
            VertexShapeError::DuplicateStrongEdge { source } => {
                write!(f, "duplicate strong edge to {source}")
            }
            VertexShapeError::WeakEdgeTooRecent { edge } => {
                write!(f, "weak edge to {} {} too recent", edge.round, edge.source)
            }
            VertexShapeError::TooManyWeakEdges { got, cap } => {
                write!(f, "{got} weak edges, at most {cap} allowed")
            }
            VertexShapeError::DuplicateWeakEdge { edge } => {
                write!(f, "duplicate weak edge to {} {}", edge.round, edge.source)
            }
            VertexShapeError::EdgeOutsideTribe { edge } => {
                write!(
                    f,
                    "{} {} is not a party of the tribe",
                    edge.round, edge.source
                )
            }
        }
    }
}

impl std::error::Error for VertexShapeError {}

impl Encode for Vertex {
    fn encode(&self, w: &mut Writer) {
        self.round.encode(w);
        self.source.encode(w);
        self.block_digest.encode(w);
        w.put_u64(self.block_bytes);
        w.put_u64(self.block_tx_count);
        self.strong_edges.encode(w);
        self.weak_edges.encode(w);
        self.nvc.encode(w);
        self.tc.encode(w);
    }

    fn encoded_len(&self) -> usize {
        self.round.encoded_len()
            + self.source.encoded_len()
            + 32
            + 8
            + 8
            + self.strong_edges.encoded_len()
            + self.weak_edges.encoded_len()
            + self.nvc.as_ref().map_or(1, |c| 1 + c.encoded_len())
            + self.tc.as_ref().map_or(1, |c| 1 + c.encoded_len())
    }
}

impl Decode for Vertex {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Vertex {
            round: Round::decode(r)?,
            source: PartyId::decode(r)?,
            block_digest: Digest::decode(r)?,
            block_bytes: r.get_u64()?,
            block_tx_count: r.get_u64()?,
            strong_edges: Vec::<VertexRef>::decode(r)?,
            weak_edges: Vec::<VertexRef>::decode(r)?,
            nvc: Option::<Box<NoVoteCert>>::decode(r)?,
            tc: Option::<Box<TimeoutCert>>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(round: u64, sources: &[u32]) -> Vec<VertexRef> {
        sources
            .iter()
            .map(|&s| VertexRef {
                round: Round(round),
                source: PartyId(s),
            })
            .collect()
    }

    /// Four parties: quorum 3.
    fn tribe() -> TribeParams {
        TribeParams::new(4)
    }

    fn sample_vertex() -> Vertex {
        Vertex {
            round: Round(5),
            source: PartyId(2),
            block_digest: Digest::of(b"block"),
            block_bytes: 3_072_000,
            block_tx_count: 6000,
            strong_edges: refs(4, &[0, 1, 2]),
            weak_edges: refs(2, &[3]),
            nvc: None,
            tc: None,
        }
    }

    #[test]
    fn valid_shape_accepted() {
        assert_eq!(sample_vertex().validate_shape(tribe()), Ok(()));
    }

    #[test]
    fn too_few_strong_edges_rejected() {
        let v = sample_vertex();
        assert_eq!(
            v.validate_shape(TribeParams::new(7)),
            Err(VertexShapeError::TooFewStrongEdges { got: 3, need: 5 })
        );
    }

    #[test]
    fn wrong_round_strong_edge_rejected() {
        let mut v = sample_vertex();
        v.strong_edges[1].round = Round(3);
        assert!(matches!(
            v.validate_shape(tribe()),
            Err(VertexShapeError::StrongEdgeWrongRound { .. })
        ));
    }

    #[test]
    fn duplicate_strong_edge_rejected() {
        let mut v = sample_vertex();
        v.strong_edges[2].source = PartyId(0);
        assert_eq!(
            v.validate_shape(tribe()),
            Err(VertexShapeError::DuplicateStrongEdge { source: PartyId(0) })
        );
    }

    #[test]
    fn shape_checks_hold_at_the_papers_largest_tribe() {
        // n = 500 (quorum 333): a vertex naming every party is fine, one
        // naming party 400 twice is not.
        let big = TribeParams::new(500);
        let everyone: Vec<u32> = (0..500).collect();
        let mut v = sample_vertex();
        v.strong_edges = refs(4, &everyone);
        assert_eq!(v.validate_shape(big), Ok(()));
        v.strong_edges[17].source = PartyId(400);
        assert_eq!(
            v.validate_shape(big),
            Err(VertexShapeError::DuplicateStrongEdge {
                source: PartyId(400)
            })
        );
    }

    #[test]
    fn weak_edge_to_previous_round_rejected() {
        let mut v = sample_vertex();
        v.weak_edges[0].round = Round(4);
        assert!(matches!(
            v.validate_shape(tribe()),
            Err(VertexShapeError::WeakEdgeTooRecent { .. })
        ));
    }

    #[test]
    fn more_than_f_weak_edges_rejected() {
        // n = 4: f = 1. The sample's one weak edge is the most a proposer
        // may cite; a second, to whatever vertex, is one too many.
        let mut v = sample_vertex();
        v.weak_edges.extend(refs(1, &[0]));
        assert_eq!(
            v.validate_shape(tribe()),
            Err(VertexShapeError::TooManyWeakEdges { got: 2, cap: 1 })
        );
        // n = 7: f = 2, so two distinct weak edges pass.
        v.strong_edges = refs(4, &[0, 1, 2, 3, 4]);
        assert_eq!(v.validate_shape(TribeParams::new(7)), Ok(()));
    }

    #[test]
    fn repeated_weak_edge_rejected() {
        // n = 7 (f = 2): within the cap, but both edges name (2, P3).
        let mut v = sample_vertex();
        v.strong_edges = refs(4, &[0, 1, 2, 3, 4]);
        v.weak_edges = refs(2, &[3, 3]);
        assert_eq!(
            v.validate_shape(TribeParams::new(7)),
            Err(VertexShapeError::DuplicateWeakEdge {
                edge: v.weak_edges[0]
            })
        );
        // The same source in two different rounds is two vertices.
        v.weak_edges[1].round = Round(1);
        assert_eq!(v.validate_shape(TribeParams::new(7)), Ok(()));
    }

    #[test]
    fn references_outside_the_tribe_rejected() {
        let stranger = VertexRef {
            round: Round(4),
            source: PartyId(9999),
        };
        let mut strong = sample_vertex();
        strong.strong_edges.push(stranger);
        assert_eq!(
            strong.validate_shape(tribe()),
            Err(VertexShapeError::EdgeOutsideTribe { edge: stranger }),
            "a quorum of honest edges does not excuse the extra one"
        );
        let mut weak = sample_vertex();
        weak.weak_edges[0].source = PartyId(4);
        assert!(matches!(
            weak.validate_shape(tribe()),
            Err(VertexShapeError::EdgeOutsideTribe { .. })
        ));
        let mut own = sample_vertex();
        own.source = PartyId(u32::MAX);
        assert!(matches!(
            own.validate_shape(tribe()),
            Err(VertexShapeError::EdgeOutsideTribe { .. })
        ));
        let mut genesis = Vertex::genesis(PartyId(4), Digest::ZERO);
        assert!(genesis.validate_shape(tribe()).is_err());
        genesis.source = PartyId(3);
        assert_eq!(genesis.validate_shape(tribe()), Ok(()));
    }

    #[test]
    fn genesis_shape() {
        let g = Vertex::genesis(PartyId(0), Digest::ZERO);
        assert_eq!(g.validate_shape(tribe()), Ok(()));
        let mut bad = g.clone();
        bad.strong_edges = refs(0, &[1, 2, 3]);
        assert_eq!(
            bad.validate_shape(tribe()),
            Err(VertexShapeError::GenesisWithEdges)
        );
    }

    #[test]
    fn id_changes_with_content() {
        let v = sample_vertex();
        let mut v2 = v.clone();
        v2.block_digest = Digest::of(b"other block");
        assert_ne!(v.id(), v2.id());
        let mut v3 = v.clone();
        v3.weak_edges.clear();
        assert_ne!(v.id(), v3.id());
        assert_eq!(v.id(), sample_vertex().id());
    }

    #[test]
    fn codec_roundtrip() {
        let v = sample_vertex();
        let back = Vertex::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(back.id(), v.id());
        assert_eq!(back.strong_edges, v.strong_edges);
    }

    #[test]
    fn vertex_is_small_on_the_wire() {
        // The paper's premise: a vertex is metadata, ℓ >> κn. Even with 99
        // strong edges (n=150), the vertex stays around a kilobyte.
        let mut v = sample_vertex();
        v.strong_edges = (0..99)
            .map(|s| VertexRef {
                round: Round(4),
                source: PartyId(s),
            })
            .collect();
        assert!(
            v.encoded_len() < 2048,
            "vertex is {} bytes",
            v.encoded_len()
        );
    }
}
