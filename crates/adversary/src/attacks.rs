//! Scripted attacks over the consensus wire protocol.
//!
//! Each [`Attack`] value instantiates a [`Behavior`] over [`ConsensusMsg`]
//! exercising one distinct misbehaviour class from the paper's fault model:
//!
//! * [`Attack::Equivocate`] — two distinct-but-valid vertex/block pairs per
//!   round, one to each half of the peer set (detected via RBC echo
//!   divergence → `Evidence::EquivocatingSource`);
//! * [`Attack::DigestMismatch`] — the full payload disagrees with the
//!   certified vertex digest (rejected as `rejected.bad_payload`);
//! * [`Attack::Withhold`] — own payloads never reach the listed victims and
//!   their pulls are never served (recovered via pull retry/rotation);
//! * [`Attack::Replay`] — every send is accompanied by a replayed past
//!   signed message (absorbed as `rejected.duplicate`);
//! * [`Attack::MutateSig`] — signature bytes flipped on echoes, votes and
//!   timeouts (rejected as `rejected.bad_sig` when verification is on);
//! * [`Attack::DoubleVote`] — a second, validly signed leader vote for a
//!   conflicting vertex id each round (detected as `Evidence::DoubleVote`);
//! * [`Attack::Misbind`] — well-formed vertices that name another party's
//!   slot or a far-future round, broadcast in the attacker's own instances
//!   and served in its pull responses (refused as `rejected.bad_payload`,
//!   the broadcasts recorded as `Evidence::MisboundPayload`).

use crate::behavior::Behavior;
use clanbft_consensus::messages::vote_digest;
use clanbft_consensus::{ConsensusMsg, MergedPayload};
use clanbft_crypto::{Authenticator, Digest, Signature};
use clanbft_rbc::{RbcMsg, RbcPacket, TribePayload};
use clanbft_types::{Block, Encode, Micros, PartyId, Round, TxBatch, Vertex};
use std::collections::HashMap;
use std::sync::Arc;

/// A cloneable attack selector — the unit `TribeSpec.byzantine` is
/// configured with.
#[derive(Clone, Debug)]
pub enum Attack {
    /// Send conflicting vertex/block pairs to disjoint peer halves.
    Equivocate,
    /// Send full payloads whose block contradicts the vertex digest.
    DigestMismatch,
    /// Withhold own payloads from `victims` and never serve their pulls.
    Withhold {
        /// Parties that receive nothing from this node's broadcasts.
        victims: Vec<PartyId>,
    },
    /// Attach a replayed past message to every send.
    Replay,
    /// Flip signature bytes on every signed message.
    MutateSig,
    /// Cast a second, conflicting leader vote each round.
    DoubleVote,
    /// Send vertices that name `victim`'s slot (even rounds) or a round far
    /// ahead (odd rounds) instead of the instance that carries them.
    Misbind {
        /// The party whose slots the even-round vertices claim.
        victim: PartyId,
    },
}

impl Attack {
    /// Builds the behaviour implementing this attack. `auth` is the
    /// attacker's own signer: a conflicting vote is signed with it, so it
    /// survives real verification.
    pub fn instantiate(&self, auth: Arc<Authenticator>) -> Box<dyn Behavior<ConsensusMsg>> {
        match self {
            Attack::Equivocate => Box::new(Equivocator::default()),
            Attack::DigestMismatch => Box::new(DigestMismatcher),
            Attack::Withhold { victims } => Box::new(Withholder {
                victims: victims.clone(),
            }),
            Attack::Replay => Box::new(Replayer::default()),
            Attack::MutateSig => Box::new(SigMutator),
            Attack::DoubleVote => Box::new(DoubleVoter { auth }),
            Attack::Misbind { victim } => Box::new(Misbinder { victim: *victim }),
        }
    }

    /// Short label for logs and test diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Attack::Equivocate => "equivocate",
            Attack::DigestMismatch => "digest_mismatch",
            Attack::Withhold { .. } => "withhold",
            Attack::Replay => "replay",
            Attack::MutateSig => "mutate_sig",
            Attack::DoubleVote => "double_vote",
            Attack::Misbind { .. } => "misbind",
        }
    }
}

/// Builds a *valid* twin of `payload` with a different block (and therefore
/// a different vertex id): the equivocation counterpart.
fn twin_of(payload: &MergedPayload) -> MergedPayload {
    let source = payload.vertex.source;
    let round = payload.vertex.round;
    let block = if payload.block.tx_count() > 0 {
        Block::empty(source, round)
    } else {
        // The original is empty; the twin carries one synthetic tx so the
        // digests must differ.
        Block::new(
            source,
            round,
            vec![TxBatch::synthetic(
                source,
                u64::MAX / 2,
                1,
                512,
                Micros::ZERO,
            )],
        )
    };
    let mut vertex = (*payload.vertex).clone();
    vertex.block_digest = block.digest();
    vertex.block_bytes = block.encoded_len() as u64;
    vertex.block_tx_count = block.tx_count();
    MergedPayload::new(vertex, block)
}

/// Sends payload A to even-indexed peers and a twin payload B to odd ones.
#[derive(Default)]
struct Equivocator {
    twins: HashMap<Round, MergedPayload>,
}

impl Behavior<ConsensusMsg> for Equivocator {
    fn outbound(
        &mut self,
        to: PartyId,
        msg: ConsensusMsg,
        _now: Micros,
        emit: &mut dyn FnMut(PartyId, ConsensusMsg),
    ) {
        // Only this node's own broadcasts (Val/ValMeta) are forked; echoes,
        // votes and relays pass through so the node otherwise participates.
        if to.idx() % 2 == 1 {
            if let ConsensusMsg::Rbc(pkt) = &msg {
                match &pkt.msg {
                    RbcMsg::Val(p) => {
                        let twin = self
                            .twins
                            .entry(pkt.round)
                            .or_insert_with(|| twin_of(p))
                            .clone();
                        emit(
                            to,
                            ConsensusMsg::Rbc(RbcPacket {
                                source: pkt.source,
                                round: pkt.round,
                                msg: RbcMsg::Val(twin),
                            }),
                        );
                        return;
                    }
                    RbcMsg::ValMeta(_) => {
                        // The twin's meta must exist even when the honest
                        // copy only left as a meta view; synthesise from the
                        // full payload if we saw it, else pass through.
                        if let Some(twin) = self.twins.get(&pkt.round) {
                            emit(
                                to,
                                ConsensusMsg::Rbc(RbcPacket {
                                    source: pkt.source,
                                    round: pkt.round,
                                    msg: RbcMsg::ValMeta(twin.meta()),
                                }),
                            );
                            return;
                        }
                    }
                    _ => {}
                }
            }
        }
        emit(to, msg);
    }
}

/// Ships full payloads whose block contradicts the vertex's declared block
/// digest — receivers must reject them via `TribePayload::validate`.
struct DigestMismatcher;

impl DigestMismatcher {
    fn forge(payload: &MergedPayload) -> MergedPayload {
        let source = payload.vertex.source;
        let round = payload.vertex.round;
        // Keep the vertex (so the certified digest is unchanged) but swap in
        // a block it does not bind; built by struct literal on purpose —
        // `MergedPayload::new` would assert the binding we are violating.
        let wrong = if payload.block.tx_count() > 0 {
            Block::empty(source, round)
        } else {
            Block::new(
                source,
                round,
                vec![TxBatch::synthetic(source, 1, 1, 512, Micros::ZERO)],
            )
        };
        MergedPayload {
            vertex: payload.vertex.clone(),
            block: Arc::new(wrong),
        }
    }
}

impl Behavior<ConsensusMsg> for DigestMismatcher {
    fn outbound(
        &mut self,
        to: PartyId,
        msg: ConsensusMsg,
        _now: Micros,
        emit: &mut dyn FnMut(PartyId, ConsensusMsg),
    ) {
        if let ConsensusMsg::Rbc(pkt) = &msg {
            let forged = match &pkt.msg {
                RbcMsg::Val(p) => Some(RbcMsg::Val(Self::forge(p))),
                RbcMsg::PullResp(p) => Some(RbcMsg::PullResp(Self::forge(p))),
                _ => None,
            };
            if let Some(forged) = forged {
                emit(
                    to,
                    ConsensusMsg::Rbc(RbcPacket {
                        source: pkt.source,
                        round: pkt.round,
                        msg: forged,
                    }),
                );
                return;
            }
        }
        emit(to, msg);
    }
}

/// How far ahead of its instance an odd-round `Misbinder` vertex claims
/// to be.
pub const MISBIND_ROUNDS_AHEAD: u64 = 1 << 40;

/// Rewrites every payload this node ships — its own broadcasts and the pull
/// responses it serves — into a well-formed one that names another
/// instance than the packet's: `victim`'s slot in the same round, or this
/// slot in a far-future round (which, accepted, would sit in the DAG's
/// pending buffer for good).
struct Misbinder {
    victim: PartyId,
}

impl Misbinder {
    fn misbind(&self, vertex: &Vertex) -> MergedPayload {
        let mut vertex = vertex.clone();
        if vertex.round.0 % 2 == 0 {
            vertex.source = self.victim;
        } else {
            vertex.round = Round(vertex.round.0 + MISBIND_ROUNDS_AHEAD);
            for edge in &mut vertex.strong_edges {
                edge.round = Round(vertex.round.0 - 1);
            }
        }
        // A block of the named slot, so the pair is consistent in itself.
        let block = Block::empty(vertex.source, vertex.round);
        vertex.block_digest = block.digest();
        vertex.block_bytes = block.encoded_len() as u64;
        vertex.block_tx_count = block.tx_count();
        MergedPayload::new(vertex, block)
    }
}

impl Behavior<ConsensusMsg> for Misbinder {
    fn outbound(
        &mut self,
        to: PartyId,
        msg: ConsensusMsg,
        _now: Micros,
        emit: &mut dyn FnMut(PartyId, ConsensusMsg),
    ) {
        let ConsensusMsg::Rbc(pkt) = msg else {
            return emit(to, msg);
        };
        let msg = match pkt.msg {
            RbcMsg::Val(p) => RbcMsg::Val(self.misbind(&p.vertex)),
            RbcMsg::PullResp(p) => RbcMsg::PullResp(self.misbind(&p.vertex)),
            RbcMsg::ValMeta(m) => RbcMsg::ValMeta(self.misbind(&m).vertex),
            RbcMsg::MetaResp(m) => RbcMsg::MetaResp(self.misbind(&m).vertex),
            other => other,
        };
        emit(to, ConsensusMsg::Rbc(RbcPacket { msg, ..pkt }));
    }
}

/// Starves `victims`: they get neither this node's broadcasts nor any pull
/// service, forcing them through the retry/rotation path.
struct Withholder {
    victims: Vec<PartyId>,
}

impl Behavior<ConsensusMsg> for Withholder {
    fn inbound(&mut self, from: PartyId, msg: ConsensusMsg, _now: Micros) -> Option<ConsensusMsg> {
        // Ignore every pull request — from anyone — so a victim rotating to
        // this node gets silence, not service.
        if let ConsensusMsg::Rbc(pkt) = &msg {
            if matches!(pkt.msg, RbcMsg::Pull { .. } | RbcMsg::PullMeta { .. }) {
                let _ = from;
                return None;
            }
        }
        Some(msg)
    }

    fn outbound(
        &mut self,
        to: PartyId,
        msg: ConsensusMsg,
        _now: Micros,
        emit: &mut dyn FnMut(PartyId, ConsensusMsg),
    ) {
        if self.victims.contains(&to) {
            if let ConsensusMsg::Rbc(pkt) = &msg {
                if matches!(
                    pkt.msg,
                    RbcMsg::Val(_) | RbcMsg::ValMeta(_) | RbcMsg::PullResp(_) | RbcMsg::MetaResp(_)
                ) {
                    return;
                }
            }
        }
        emit(to, msg);
    }
}

/// How many past messages the replayer cycles through.
const REPLAY_WINDOW: usize = 8;

/// Duplicates traffic: every send is accompanied by a replayed message from
/// a sliding window of recent past sends.
#[derive(Default)]
struct Replayer {
    window: Vec<ConsensusMsg>,
    cursor: usize,
}

impl Behavior<ConsensusMsg> for Replayer {
    fn outbound(
        &mut self,
        to: PartyId,
        msg: ConsensusMsg,
        _now: Micros,
        emit: &mut dyn FnMut(PartyId, ConsensusMsg),
    ) {
        emit(to, msg.clone());
        if !self.window.is_empty() {
            let replay = self.window[self.cursor % self.window.len()].clone();
            self.cursor = self.cursor.wrapping_add(1);
            emit(to, replay);
        }
        if self.window.len() < REPLAY_WINDOW {
            self.window.push(msg);
        } else {
            let slot = self.cursor % REPLAY_WINDOW;
            self.window[slot] = msg;
        }
    }
}

fn flip(sig: &Signature) -> Signature {
    let mut bytes = sig.0;
    bytes[0] ^= 0xff;
    Signature(bytes)
}

/// Corrupts every signature this node emits (echoes, votes, timeouts).
struct SigMutator;

impl Behavior<ConsensusMsg> for SigMutator {
    fn outbound(
        &mut self,
        to: PartyId,
        msg: ConsensusMsg,
        _now: Micros,
        emit: &mut dyn FnMut(PartyId, ConsensusMsg),
    ) {
        let mutated = match msg {
            ConsensusMsg::Rbc(pkt) => {
                let msg = match pkt.msg {
                    RbcMsg::Echo { digest, sig } => RbcMsg::Echo {
                        digest,
                        sig: sig.map(|s| flip(&s)),
                    },
                    other => other,
                };
                ConsensusMsg::Rbc(RbcPacket {
                    source: pkt.source,
                    round: pkt.round,
                    msg,
                })
            }
            ConsensusMsg::Vote {
                round,
                vertex_id,
                sig,
            } => ConsensusMsg::Vote {
                round,
                vertex_id,
                sig: flip(&sig),
            },
            ConsensusMsg::Timeout {
                round,
                timeout_sig,
                no_vote_sig,
            } => ConsensusMsg::Timeout {
                round,
                timeout_sig: flip(&timeout_sig),
                no_vote_sig: flip(&no_vote_sig),
            },
            // State transfer carries no signatures of its own: the requester
            // cross-checks responses against `f+1` peers instead.
            other @ (ConsensusMsg::StateRequest { .. } | ConsensusMsg::StateReply { .. }) => other,
        };
        emit(to, mutated);
    }
}

/// Casts a second, conflicting leader vote right after every genuine one,
/// signed with the attacker's own key: a valid signature on a conflicting
/// statement, which is what makes it evidence.
struct DoubleVoter {
    auth: Arc<Authenticator>,
}

impl Behavior<ConsensusMsg> for DoubleVoter {
    fn outbound(
        &mut self,
        to: PartyId,
        msg: ConsensusMsg,
        _now: Micros,
        emit: &mut dyn FnMut(PartyId, ConsensusMsg),
    ) {
        if let ConsensusMsg::Vote {
            round, vertex_id, ..
        } = &msg
        {
            let conflicting = Digest::of(vertex_id.as_bytes());
            let second = ConsensusMsg::Vote {
                round: *round,
                vertex_id: conflicting,
                sig: self.auth.sign_digest(&vote_digest(*round, &conflicting)),
            };
            emit(to, msg.clone());
            emit(to, second);
            return;
        }
        emit(to, msg);
    }
}

/// A vertex-shaped helper for engine-level tests: exposes `twin_of` so unit
/// tests can build conflicting-but-valid payload pairs.
pub fn equivocation_twin(payload: &MergedPayload) -> MergedPayload {
    twin_of(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_types::Vertex;

    fn sample(txs: u32) -> MergedPayload {
        let block = if txs > 0 {
            Block::new(
                PartyId(2),
                Round(4),
                vec![TxBatch::synthetic(PartyId(2), 0, txs, 512, Micros(1))],
            )
        } else {
            Block::empty(PartyId(2), Round(4))
        };
        let vertex = Vertex {
            round: Round(4),
            source: PartyId(2),
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
    fn twin_is_valid_but_distinct() {
        for txs in [0u32, 50] {
            let p = sample(txs);
            let t = twin_of(&p);
            assert!(t.validate(), "twin must pass honest validation");
            assert_ne!(p.rbc_digest(), t.rbc_digest(), "twin must conflict");
            assert_eq!(t.vertex.round, p.vertex.round);
            assert_eq!(t.vertex.source, p.vertex.source);
        }
    }

    #[test]
    fn forged_payload_fails_validation() {
        for txs in [0u32, 50] {
            let p = sample(txs);
            let f = DigestMismatcher::forge(&p);
            assert!(!f.validate(), "forgery must be detectable");
            assert_eq!(
                f.rbc_digest(),
                p.rbc_digest(),
                "forgery keeps the certified digest"
            );
        }
    }

    #[test]
    fn sig_flip_changes_bytes() {
        let s = Signature([7u8; 64]);
        assert_ne!(flip(&s).0, s.0);
        assert_eq!(flip(&flip(&s)).0, s.0);
    }

    #[test]
    fn replayer_duplicates_past_traffic() {
        let mut r = Replayer::default();
        let vote = |n: u64| ConsensusMsg::Vote {
            round: Round(n),
            vertex_id: Digest::of(&n.to_le_bytes()),
            sig: Signature([0u8; 64]),
        };
        let mut sent = Vec::new();
        r.outbound(PartyId(1), vote(1), Micros::ZERO, &mut |t, m| {
            sent.push((t, m))
        });
        assert_eq!(sent.len(), 1, "nothing to replay yet");
        r.outbound(PartyId(2), vote(2), Micros::ZERO, &mut |t, m| {
            sent.push((t, m))
        });
        assert_eq!(sent.len(), 3, "second send carries a replay");
    }
}
