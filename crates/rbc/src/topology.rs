//! Clan topology as seen by the broadcast layer.
//!
//! Maps every potential sender to the clan that must receive its payloads:
//! under single-clan every sender targets the one designated clan; under
//! multi-clan each sender targets its own clan; for standard (tribe-wide)
//! RBC there is a single clan containing everybody.

use clanbft_types::{PartyId, PartySet, TribeParams};

/// One clan's membership, precomputed for O(1) checks.
#[derive(Clone, Debug)]
pub struct ClanInfo {
    /// Members sorted by party id.
    pub members: Vec<PartyId>,
    /// Membership set over the tribe.
    pub member_bits: PartySet,
    /// The `f_c + 1` threshold of this clan.
    pub clan_quorum: usize,
}

impl ClanInfo {
    fn new(n: usize, mut members: Vec<PartyId>) -> ClanInfo {
        members.sort_unstable();
        members.dedup();
        let mut member_bits = PartySet::EMPTY;
        for &p in &members {
            assert!(p.idx() < n, "clan member {p} outside the tribe of {n}");
            member_bits.insert(p);
        }
        let nc = members.len();
        assert!(nc >= 1, "clan cannot be empty");
        let clan_quorum = (nc - 1) / 2 + 1;
        ClanInfo {
            members,
            member_bits,
            clan_quorum,
        }
    }

    /// True iff `p` belongs to this clan.
    pub fn contains(&self, p: PartyId) -> bool {
        self.member_bits.contains(p)
    }

    /// Clan size.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True iff the clan is empty (never constructed; kept for API hygiene).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// The broadcast layer's view of the tribe and its clans.
#[derive(Clone, Debug)]
pub struct ClanTopology {
    tribe: TribeParams,
    clans: Vec<ClanInfo>,
    /// For each party: the clan index whose members receive that party's
    /// full payloads when it acts as sender.
    clan_of_sender: Vec<usize>,
}

impl ClanTopology {
    /// Standard tribe-wide RBC: one clan containing everybody.
    pub fn whole_tribe(tribe: TribeParams) -> ClanTopology {
        let n = tribe.n();
        let all: Vec<PartyId> = tribe.parties().collect();
        ClanTopology {
            tribe,
            clans: vec![ClanInfo::new(n, all)],
            clan_of_sender: vec![0; n],
        }
    }

    /// Single-clan topology: every sender disseminates into the one
    /// designated clan.
    pub fn single_clan(tribe: TribeParams, members: Vec<PartyId>) -> ClanTopology {
        let n = tribe.n();
        ClanTopology {
            tribe,
            clans: vec![ClanInfo::new(n, members)],
            clan_of_sender: vec![0; n],
        }
    }

    /// Multi-clan topology: each sender disseminates into its own clan.
    ///
    /// # Panics
    ///
    /// Panics if some party belongs to no clan (the multi-clan design
    /// requires full coverage) or to more than one.
    pub fn multi_clan(tribe: TribeParams, clans: Vec<Vec<PartyId>>) -> ClanTopology {
        let n = tribe.n();
        let infos: Vec<ClanInfo> = clans.into_iter().map(|m| ClanInfo::new(n, m)).collect();
        let mut clan_of_sender = vec![usize::MAX; n];
        for (ci, info) in infos.iter().enumerate() {
            for &p in &info.members {
                assert!(
                    clan_of_sender[p.idx()] == usize::MAX,
                    "party {p} in two clans"
                );
                clan_of_sender[p.idx()] = ci;
            }
        }
        for (p, &c) in clan_of_sender.iter().enumerate() {
            assert!(c != usize::MAX, "party P{p} belongs to no clan");
        }
        ClanTopology {
            tribe,
            clans: infos,
            clan_of_sender,
        }
    }

    /// Tribe parameters.
    pub fn tribe(&self) -> TribeParams {
        self.tribe
    }

    /// Number of clans.
    pub fn clan_count(&self) -> usize {
        self.clans.len()
    }

    /// The clan that receives full payloads from `sender`.
    pub fn clan_for_sender(&self, sender: PartyId) -> &ClanInfo {
        &self.clans[self.clan_of_sender[sender.idx()]]
    }

    /// Clan by index.
    pub fn clan(&self, idx: usize) -> &ClanInfo {
        &self.clans[idx]
    }

    /// The clan index `p` belongs to, if any.
    pub fn clan_of_member(&self, p: PartyId) -> Option<usize> {
        self.clans.iter().position(|c| c.contains(p))
    }

    /// True iff `me` receives full payloads from `sender`.
    pub fn receives_full(&self, me: PartyId, sender: PartyId) -> bool {
        self.clan_for_sender(sender).contains(me)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PartyId {
        PartyId(i)
    }

    #[test]
    fn whole_tribe_everyone_receives_full() {
        let t = ClanTopology::whole_tribe(TribeParams::new(7));
        assert_eq!(t.clan_count(), 1);
        for a in 0..7 {
            for b in 0..7 {
                assert!(t.receives_full(p(a), p(b)));
            }
        }
        // fc+1 for a "clan" of 7 is 4.
        assert_eq!(t.clan_for_sender(p(0)).clan_quorum, 4);
    }

    #[test]
    fn single_clan_routing() {
        let t = ClanTopology::single_clan(TribeParams::new(7), vec![p(1), p(3), p(5)]);
        for sender in 0..7 {
            assert!(t.receives_full(p(1), p(sender)));
            assert!(!t.receives_full(p(0), p(sender)));
        }
        assert_eq!(t.clan_for_sender(p(2)).clan_quorum, 2);
        assert_eq!(t.clan_of_member(p(3)), Some(0));
        assert_eq!(t.clan_of_member(p(0)), None);
    }

    #[test]
    fn multi_clan_routing() {
        let t = ClanTopology::multi_clan(
            TribeParams::new(6),
            vec![vec![p(0), p(1), p(2)], vec![p(3), p(4), p(5)]],
        );
        assert!(t.receives_full(p(0), p(1)));
        assert!(!t.receives_full(p(0), p(4)));
        assert!(t.receives_full(p(5), p(4)));
        assert_eq!(t.clan_of_member(p(4)), Some(1));
    }

    #[test]
    #[should_panic(expected = "belongs to no clan")]
    fn multi_clan_requires_coverage() {
        ClanTopology::multi_clan(TribeParams::new(6), vec![vec![p(0), p(1), p(2)]]);
    }

    #[test]
    #[should_panic(expected = "in two clans")]
    fn multi_clan_requires_disjoint() {
        ClanTopology::multi_clan(
            TribeParams::new(6),
            vec![vec![p(0), p(1), p(2)], vec![p(2), p(3), p(4), p(5)]],
        );
    }

    #[test]
    fn duplicate_members_collapse() {
        let t = ClanTopology::single_clan(TribeParams::new(5), vec![p(1), p(1), p(2), p(4)]);
        assert_eq!(t.clan(0).len(), 3);
    }
}
