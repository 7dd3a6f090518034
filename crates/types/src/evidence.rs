//! Typed Byzantine-fault evidence.
//!
//! When the honest path detects two conflicting *signed* statements from
//! one party — two distinct vertices broadcast in the same round, or two
//! leader votes for different vertices — it records the conflict as an
//! [`Evidence`] value instead of silently dropping the second message. The
//! RBC engines and `SailfishNode` accumulate these; tests and operators
//! read them back through node state (`SailfishNode::evidence()`) and the
//! `rejected.equivocation` / `evidence.recorded` telemetry counters.
//!
//! Evidence here is an *observation*, not a proof object: under the
//! 2-round RBC variant the conflicting echoes carry signatures, so the pair
//! is cryptographically attributable; under the 3-round (unsigned-echo)
//! variant a lying echoer could frame the source, so the culprit field
//! names the party the observation points at, with attribution strength
//! depending on the variant (DESIGN.md "Adversary model").

use crate::codec::{Decode, DecodeError, Encode, Reader, Writer};
use crate::ids::{PartyId, Round};
use clanbft_crypto::Digest;

/// A recorded conflict attributable to one party.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Evidence {
    /// One source was observed behind two distinct payload digests for a
    /// single RBC instance (equivocation or digest-mismatch at the VAL
    /// layer): a direct conflicting VAL/meta, or echoes for two digests.
    EquivocatingSource {
        /// RBC round of the instance.
        round: Round,
        /// The equivocating broadcaster.
        source: PartyId,
        /// Digest observed first.
        first: Digest,
        /// Conflicting digest observed second.
        second: Digest,
    },
    /// One party cast leader votes for two different vertices in the same
    /// round.
    DoubleVote {
        /// Voting round.
        round: Round,
        /// The double-voting party.
        voter: PartyId,
        /// Vertex digest voted for first.
        first: Digest,
        /// Conflicting vertex digest voted for second.
        second: Digest,
    },
    /// One party both voted for the leader and announced a timeout in the
    /// same round — honest nodes do exactly one of the two.
    VoteTimeoutConflict {
        /// The round of the conflicting statements.
        round: Round,
        /// The conflicted party.
        party: PartyId,
    },
    /// A source sent, in its own RBC instance, a payload that names another
    /// instance: a vertex claiming another party's slot, or another round.
    MisboundPayload {
        /// RBC round of the instance that carried it.
        round: Round,
        /// The broadcaster of that instance.
        source: PartyId,
        /// The round the payload names.
        named_round: Round,
        /// The party the payload names.
        named_source: PartyId,
    },
}

impl Evidence {
    /// Stable label for telemetry/NDJSON.
    pub fn kind(&self) -> &'static str {
        match self {
            Evidence::EquivocatingSource { .. } => "equivocating_source",
            Evidence::DoubleVote { .. } => "double_vote",
            Evidence::VoteTimeoutConflict { .. } => "vote_timeout_conflict",
            Evidence::MisboundPayload { .. } => "misbound_payload",
        }
    }

    /// The party the evidence points at.
    pub fn culprit(&self) -> PartyId {
        match self {
            Evidence::EquivocatingSource { source, .. }
            | Evidence::MisboundPayload { source, .. } => *source,
            Evidence::DoubleVote { voter, .. } => *voter,
            Evidence::VoteTimeoutConflict { party, .. } => *party,
        }
    }

    /// The round the conflict occurred in.
    pub fn round(&self) -> Round {
        match self {
            Evidence::EquivocatingSource { round, .. }
            | Evidence::DoubleVote { round, .. }
            | Evidence::VoteTimeoutConflict { round, .. }
            | Evidence::MisboundPayload { round, .. } => *round,
        }
    }
}

const EV_EQUIVOCATING: u8 = 1;
const EV_DOUBLE_VOTE: u8 = 2;
const EV_VOTE_TIMEOUT: u8 = 3;
const EV_MISBOUND: u8 = 4;

impl Encode for Evidence {
    fn encode(&self, w: &mut Writer) {
        match self {
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
}

impl Decode for Evidence {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_all_variants() {
        let cases = [
            Evidence::EquivocatingSource {
                round: Round(3),
                source: PartyId(1),
                first: Digest([1; 32]),
                second: Digest([2; 32]),
            },
            Evidence::DoubleVote {
                round: Round(4),
                voter: PartyId(2),
                first: Digest([3; 32]),
                second: Digest([4; 32]),
            },
            Evidence::VoteTimeoutConflict {
                round: Round(5),
                party: PartyId(3),
            },
            Evidence::MisboundPayload {
                round: Round(6),
                source: PartyId(0),
                named_round: Round(9),
                named_source: PartyId(2),
            },
        ];
        let kinds: Vec<_> = cases.iter().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            [
                "equivocating_source",
                "double_vote",
                "vote_timeout_conflict",
                "misbound_payload"
            ]
        );
        assert_eq!(cases[0].culprit(), PartyId(1));
        assert_eq!(cases[1].culprit(), PartyId(2));
        assert_eq!(cases[2].culprit(), PartyId(3));
        assert_eq!(cases[3].culprit(), PartyId(0), "the carrier, not the named");
        assert_eq!(cases[0].round(), Round(3));
        assert_eq!(cases[2].round(), Round(5));
        assert_eq!(cases[3].round(), Round(6));
    }
}
