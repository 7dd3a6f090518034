//! Per-round consensus state: everything the Sailfish rules read about one
//! round, in one record. The node keeps one [`RoundState`] per round in a
//! [`clanbft_types::RoundWindow`] from the GC horizon on, so pruning every
//! per-round fact is one call and no fact can be left behind.
//!
//! A party gets exactly one vote per round: a second vote for a different
//! vertex is a [`VoteOutcome::Conflict`], recorded as evidence, never
//! counted. That bounds what a Byzantine voter adds to one entry.

use clanbft_crypto::{Digest, Signature};
use clanbft_types::{NoVoteCert, PartyId, PartySet, Round, TimeoutCert};

/// Result of recording one leader vote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VoteOutcome {
    /// Fresh vote; the new count for the voted vertex.
    New(usize),
    /// Same party, same vertex again — no new information.
    Duplicate,
    /// Same party voted for a *different* vertex this round: equivocation.
    Conflict {
        /// The vertex digest the party voted for first.
        first: Digest,
    },
}

/// One round as the node knows it: the leader votes, the timeout
/// announcements and the certificates formed from them, and this node's own
/// vote or no-vote. Empty until the round's first fact arrives; nothing is
/// allocated before.
#[derive(Default)]
pub struct RoundState {
    /// Each vertex digest voted for, with the parties whose first vote it
    /// was. A party sits in at most one set: its first vote is the one
    /// counted.
    votes: Vec<(Digest, PartySet)>,
    /// `(signer, timeout_sig)` pairs for the TC, in arrival order.
    timeout_sigs: Vec<(usize, Signature)>,
    /// `(signer, no_vote_sig)` pairs for the NVC, in arrival order.
    no_vote_sigs: Vec<(usize, Signature)>,
    /// The certificates assembled from `2f+1` announcements. Boxed: few
    /// rounds form them, and inline they were most of every round's record.
    pub certs: Option<Box<(TimeoutCert, NoVoteCert)>>,
    /// This node voted for the round's leader vertex.
    pub voted: bool,
    /// This node announced a timeout. It does one or the other, once: the
    /// quorum-intersection hinge of commit safety.
    pub no_voted: bool,
}

impl RoundState {
    /// Records a vote, enforcing one vote per party.
    pub fn record_vote(&mut self, from: PartyId, vertex_id: Digest) -> VoteOutcome {
        if let Some(first) = self.voted_for(from) {
            return if first == vertex_id {
                VoteOutcome::Duplicate
            } else {
                VoteOutcome::Conflict { first }
            };
        }
        let at = match self.votes.iter().position(|(d, _)| *d == vertex_id) {
            Some(at) => at,
            None => {
                self.votes.push((vertex_id, PartySet::EMPTY));
                self.votes.len() - 1
            }
        };
        let voters = &mut self.votes[at].1;
        voters.insert(from);
        VoteOutcome::New(voters.count())
    }

    /// Counted votes for `vertex_id`.
    pub fn vote_count(&self, vertex_id: &Digest) -> usize {
        let voters = self.votes.iter().find(|(d, _)| d == vertex_id);
        voters.map_or(0, |(_, voters)| voters.count())
    }

    /// The vertex `party` voted for, if it voted.
    pub fn voted_for(&self, party: PartyId) -> Option<Digest> {
        let first = self.votes.iter().find(|(_, voters)| voters.contains(party));
        first.map(|(d, _)| *d)
    }

    /// Records a timeout announcement; returns the new count, or `None` for
    /// a duplicate.
    pub fn record_timeout(
        &mut self,
        from: PartyId,
        timeout_sig: Signature,
        no_vote_sig: Signature,
    ) -> Option<usize> {
        if self.announced(from) {
            return None;
        }
        self.timeout_sigs.push((from.idx(), timeout_sig));
        self.no_vote_sigs.push((from.idx(), no_vote_sig));
        Some(self.timeout_sigs.len())
    }

    /// Whether `party` announced a timeout.
    pub fn announced(&self, party: PartyId) -> bool {
        self.timeout_sigs
            .iter()
            .any(|(signer, _)| *signer == party.idx())
    }

    /// Assembles the TC and NVC for `round` from the announcements so far,
    /// over a tribe of `n`, and keeps them.
    pub fn form_certs(&mut self, round: Round, n: usize) {
        let tc = TimeoutCert::new(round, n, &self.timeout_sigs);
        let nvc = NoVoteCert::new(round, n, &self.no_vote_sigs);
        self.certs = Some(Box::new((tc, nvc)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clanbft_types::RoundWindow;

    #[test]
    fn votes_count_and_dedup() {
        let mut t = RoundState::default();
        let d = Digest::of(b"leader vertex");
        assert_eq!(t.record_vote(PartyId(0), d), VoteOutcome::New(1));
        assert_eq!(t.record_vote(PartyId(1), d), VoteOutcome::New(2));
        assert_eq!(
            t.record_vote(PartyId(1), d),
            VoteOutcome::Duplicate,
            "duplicate"
        );
        assert_eq!(t.vote_count(&d), 2);
        assert_eq!(t.voted_for(PartyId(0)), Some(d));
        assert_eq!(t.voted_for(PartyId(3)), None);
        // Votes for a different digest are tracked separately.
        let d2 = Digest::of(b"other");
        assert_eq!(t.record_vote(PartyId(2), d2), VoteOutcome::New(1));
        assert_eq!(t.vote_count(&d), 2);
    }

    #[test]
    fn conflicting_vote_is_reported_not_counted() {
        let mut rounds = RoundWindow::<RoundState>::default();
        let d = Digest::of(b"leader vertex");
        let d2 = Digest::of(b"equivocation");
        let t = rounds.touch(Round(1)).unwrap();
        assert_eq!(t.record_vote(PartyId(1), d), VoteOutcome::New(1));
        assert_eq!(
            t.record_vote(PartyId(1), d2),
            VoteOutcome::Conflict { first: d }
        );
        // The conflicting vote never lands in any count.
        assert_eq!(t.vote_count(&d), 1);
        assert_eq!(t.vote_count(&d2), 0);
        // The same party votes freely in a different round.
        let t2 = rounds.touch(Round(2)).unwrap();
        assert_eq!(t2.record_vote(PartyId(1), d2), VoteOutcome::New(1));
    }

    #[test]
    fn vote_prune() {
        let mut rounds = RoundWindow::<RoundState>::default();
        let d = Digest::ZERO;
        rounds.touch(Round(1)).unwrap().record_vote(PartyId(0), d);
        rounds.touch(Round(5)).unwrap().record_vote(PartyId(0), d);
        rounds.prune_below(Round(3));
        assert!(rounds.get(Round(1)).is_none());
        assert!(rounds.touch(Round(1)).is_none(), "a pruned round stays out");
        assert_eq!(rounds.get(Round(5)).unwrap().vote_count(&d), 1);
    }

    #[test]
    fn timeouts_collect_both_signature_kinds() {
        let mut t = RoundState::default();
        let s = Signature([1u8; 64]);
        assert_eq!(t.record_timeout(PartyId(3), s, s), Some(1));
        assert_eq!(t.record_timeout(PartyId(3), s, s), None);
        assert_eq!(t.record_timeout(PartyId(0), s, s), Some(2));
        assert_eq!(t.timeout_sigs.len(), 2);
        assert_eq!(t.no_vote_sigs.len(), 2);
        assert!(t.announced(PartyId(3)));
        assert!(!t.announced(PartyId(1)));
        t.form_certs(Round(2), 4);
        let (tc, nvc) = t.certs.as_deref().unwrap();
        assert_eq!((tc.round, nvc.round), (Round(2), Round(2)));
        assert_eq!((tc.agg.count(), nvc.agg.count()), (2, 2));
    }
}
